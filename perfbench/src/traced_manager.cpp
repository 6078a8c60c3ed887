#include "traced_manager.hpp"

namespace perfbench {

namespace cluster = deflate::cluster;

TracedManager::TracedManager(std::unique_ptr<cluster::ClusterManagerBase> inner,
                             SpanRecorder* spans)
    : inner_(std::move(inner)), spans_(spans) {
  if (spans_ != nullptr) {
    place_ = spans_->intern("manager.place_vm");
    remove_ = spans_->intern("manager.remove_vm");
    revoke_ = spans_->intern("manager.revoke_server");
    restore_ = spans_->intern("manager.restore_server");
    drain_ = spans_->intern("manager.drain_server");
    flush_ = spans_->intern("manager.flush_views");
  }
}

cluster::PlacementResult TracedManager::place_vm(
    const deflate::hv::VmSpec& spec) {
  const SpanRecorder::Scope span(spans_, place_);
  return inner_->place_vm(spec);
}

bool TracedManager::remove_vm(std::uint64_t vm_id) {
  const SpanRecorder::Scope span(spans_, remove_);
  return inner_->remove_vm(vm_id);
}

cluster::RevocationOutcome TracedManager::revoke_server(std::size_t server) {
  const SpanRecorder::Scope span(spans_, revoke_);
  return inner_->revoke_server(server);
}

void TracedManager::restore_server(std::size_t server) {
  const SpanRecorder::Scope span(spans_, restore_);
  inner_->restore_server(server);
}

void TracedManager::drain_server(std::size_t server) {
  const SpanRecorder::Scope span(spans_, drain_);
  inner_->drain_server(server);
}

void TracedManager::flush_views() {
  const SpanRecorder::Scope span(spans_, flush_);
  inner_->flush_views();
}

}  // namespace perfbench
