// Span-recording decorator around any ClusterManagerBase.
//
// Every mutating call (place_vm, remove_vm, revoke_server, restore_server,
// drain_server, flush_views) is forwarded to the wrapped manager inside a
// span named "manager.<call>". Read-only calls and subscriptions forward
// untouched, so decisions, stats and callbacks are the wrapped manager's
// own — tests/test_traced_manager.cpp pins that on flat and sharded
// fleets. With a null recorder the decorator records nothing.
#pragma once

#include <memory>

#include "cluster/cluster_manager.hpp"
#include "spans.hpp"

namespace perfbench {

class TracedManager final : public deflate::cluster::ClusterManagerBase {
 public:
  TracedManager(std::unique_ptr<deflate::cluster::ClusterManagerBase> inner,
                SpanRecorder* spans);

  deflate::cluster::PlacementResult place_vm(
      const deflate::hv::VmSpec& spec) override;
  bool remove_vm(std::uint64_t vm_id) override;
  deflate::cluster::RevocationOutcome revoke_server(
      std::size_t server) override;
  void restore_server(std::size_t server) override;
  void drain_server(std::size_t server) override;
  void flush_views() override;

  [[nodiscard]] bool server_active(std::size_t server) const override {
    return inner_->server_active(server);
  }
  [[nodiscard]] std::size_t active_server_count() const override {
    return inner_->active_server_count();
  }
  [[nodiscard]] std::size_t server_count() const override {
    return inner_->server_count();
  }
  [[nodiscard]] deflate::hv::Host& host(std::size_t server) override {
    return inner_->host(server);
  }
  [[nodiscard]] deflate::hv::Vm* find_vm(std::uint64_t vm_id) override {
    return inner_->find_vm(vm_id);
  }
  [[nodiscard]] std::optional<std::size_t> server_of(
      std::uint64_t vm_id) const override {
    return inner_->server_of(vm_id);
  }
  [[nodiscard]] const deflate::cluster::ClusterStats& stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] deflate::res::ResourceVector total_capacity() const override {
    return inner_->total_capacity();
  }
  [[nodiscard]] deflate::res::ResourceVector total_allocated() const override {
    return inner_->total_allocated();
  }
  [[nodiscard]] deflate::res::ResourceVector total_committed() const override {
    return inner_->total_committed();
  }
  [[nodiscard]] std::vector<std::size_t> pool_servers(
      std::size_t pool) const override {
    return inner_->pool_servers(pool);
  }
  void subscribe_deflation(const DeflationCallback& callback) override {
    inner_->subscribe_deflation(callback);
  }
  void subscribe_preemption(PreemptionCallback callback) override {
    inner_->subscribe_preemption(std::move(callback));
  }
  void subscribe_revocation(RevocationCallback callback) override {
    inner_->subscribe_revocation(std::move(callback));
  }
  void subscribe_migration(MigrationCallback callback) override {
    inner_->subscribe_migration(std::move(callback));
  }

 private:
  std::unique_ptr<deflate::cluster::ClusterManagerBase> inner_;
  SpanRecorder* spans_;
  SpanRecorder::NameId place_ = 0;
  SpanRecorder::NameId remove_ = 0;
  SpanRecorder::NameId revoke_ = 0;
  SpanRecorder::NameId restore_ = 0;
  SpanRecorder::NameId drain_ = 0;
  SpanRecorder::NameId flush_ = 0;
};

}  // namespace perfbench
