// Centralized cluster manager (§6): places VMs on servers with the
// deflation-aware fitness policy, drives per-server local deflation
// controllers, and — for the paper's baseline comparison — can instead run
// classic transient-server *preemption* as its reclamation mode.
//
// Placement is the paper's three-step protocol: (1) the manager ranks
// servers by fitness; (2) the chosen server's local controller computes the
// deflation needed to accommodate the VM and rejects it if any constraint
// is violated; (3) the deflation is performed and the VM launched —
// possibly *starting deflated* (§5.1.1) when no server can host its full
// size.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/partitions.hpp"
#include "cluster/placement.hpp"
#include "core/local_controller.hpp"
#include "core/policy.hpp"

namespace deflate::cluster {

enum class ReclamationMode { Deflation, Preemption };

struct ClusterConfig {
  std::size_t server_count = 40;
  /// §7.1.2: 48 CPUs and 128 GB RAM per server; disk/net sized generously.
  res::ResourceVector server_capacity{48.0, 128.0 * 1024.0, 4000.0, 40000.0};
  core::PolicyKind policy = core::PolicyKind::Proportional;
  ReclamationMode mode = ReclamationMode::Deflation;
  /// Which mechanism the local controllers drive (ablation: hybrid vs
  /// transparent vs explicit vs balloon).
  mech::MechanismKind mechanism = mech::MechanismKind::Hybrid;
  /// Host-ranking heuristic (ablation: paper's fitness vs first/best/worst
  /// fit). Thin alias into the placement policy registry; ignored when
  /// `placement_name` is set.
  PlacementStrategy placement = PlacementStrategy::Fitness;
  /// Registry name of the placement scorer (PolicySet path). Empty =
  /// resolve the builtin aliased by `placement`. Unknown names throw
  /// std::invalid_argument at construction.
  std::string placement_name;
  /// When false, departures do not trigger reinflation (ablation for the
  /// §5.1.3 reinflation rule).
  bool reinflate_on_departure = true;
  bool partitioned = false;
  /// Pool weights when partitioned: pool 0 = on-demand, then one pool per
  /// deflatable priority level.
  std::vector<double> pool_weights{0.5, 0.125, 0.125, 0.125, 0.125};
  /// Granularity of deflated-launch attempts (fraction steps).
  double deflated_launch_step = 0.05;
  /// ignored: the fleet places serially; delete once perfbench/ stops assigning it
  std::size_t worker_threads = 0;
};

struct PlacementResult {
  enum class Status {
    Placed,
    PlacedDeflated,   ///< admitted, but launched below its full size
    Rejected,         ///< reclamation failure / partition full
  };
  Status status = Status::Rejected;
  std::uint64_t host_id = 0;
  bool needed_reclamation = false;  ///< free capacity alone was insufficient
  double launch_fraction = 1.0;

  [[nodiscard]] bool ok() const noexcept { return status != Status::Rejected; }
};

struct ClusterStats {
  std::uint64_t placements = 0;
  std::uint64_t reclamation_attempts = 0;
  std::uint64_t reclamation_failures = 0;
  std::uint64_t deflated_launches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t rejections = 0;
  // --- transient-market revocations (server-level reclamation) ---
  std::uint64_t revocations = 0;           ///< servers taken away
  std::uint64_t restorations = 0;          ///< servers handed back
  std::uint64_t revocation_migrations = 0; ///< VMs re-placed off a revoked server
  std::uint64_t revocation_kills = 0;      ///< VMs lost to a revocation
  // --- admission layer (src/cluster/admission.hpp) ---
  // The managers never touch these; AdmissionController::cluster_stats()
  // folds its deferral-queue counters into this breakdown (expired
  // deferrals are also added to `rejections` there).
  std::uint64_t admission_deferrals = 0;  ///< requests deferred at least once
  std::uint64_t admission_expired = 0;    ///< deferrals that hit their deadline

  bool operator==(const ClusterStats&) const = default;
};

/// Displacement order shared by every revocation path: protect the most
/// valuable VMs with the scarce surviving capacity (or warning time)
/// first; ties by id for determinism.
[[nodiscard]] inline bool displacement_before(const hv::VmSpec& a,
                                              const hv::VmSpec& b) noexcept {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.id < b.id;
}

/// What happened to the VMs resident on a revoked server.
struct RevocationOutcome {
  std::size_t vms_displaced = 0;  ///< resident at revocation time
  std::size_t vms_migrated = 0;   ///< re-placed on surviving servers
  std::size_t vms_killed = 0;     ///< no surviving server could take them
};

/// Per-resource capacity in int64 fixed-point units (see FixedPointScale).
using FixedPointRow = std::array<std::int64_t, res::kNumResources>;

/// Exact fixed-point encoding for summing per-server resource values. Each
/// resource gets a power-of-two quantum: the smallest one for which `rows`
/// values bounded by `row_bound` sum below 2^62 units, so no total can
/// overflow an int64 while integral cores and MiB stay exact on any
/// realistic fleet. Integer sums do not depend on summation order, so a
/// total maintained by incremental add/subtract equals a from-scratch sum
/// bit for bit, whatever order produced it.
class FixedPointScale {
 public:
  FixedPointScale() = default;
  FixedPointScale(const res::ResourceVector& row_bound, std::size_t rows);

  /// Rounds each component (clamped to +-row_bound) to the nearest unit.
  [[nodiscard]] FixedPointRow quantize(
      const res::ResourceVector& v) const noexcept;
  [[nodiscard]] res::ResourceVector to_vector(
      const FixedPointRow& units) const noexcept;

 private:
  res::ResourceVector bound_;
  std::array<int, res::kNumResources> exponent_{};  ///< quantum = 2^exponent
};

/// Common interface of the flat ClusterManager and the sharded scheduler
/// layered on top of it (src/cluster/sharded_manager.hpp). The simulator,
/// the transient-market wiring and deflatectl operate exclusively against
/// this interface, so fleets switch between flat and sharded transparently.
/// Every `server` parameter and every server id carried by a callback or a
/// PlacementResult is a *global* fleet id in [0, server_count()).
class ClusterManagerBase {
 public:
  /// Preemption/revocation-kill observer; `host_id` is the server the VM
  /// was evicted from.
  using PreemptionCallback =
      std::function<void(const hv::VmSpec&, std::uint64_t host_id)>;
  using DeflationCallback = core::LocalDeflationController::DeflationEvent;
  /// Fired after a server-level revocation has been fully absorbed.
  using RevocationCallback =
      std::function<void(std::uint64_t host_id, const RevocationOutcome&)>;
  /// Fired when a revocation migrates a VM to a surviving server;
  /// `fraction` is the (possibly deflated) re-launch fraction.
  using MigrationCallback = std::function<void(
      const hv::VmSpec&, std::uint64_t from, std::uint64_t to, double fraction)>;

  virtual ~ClusterManagerBase() = default;

  /// Places a VM per the three-step protocol; see PlacementResult.
  virtual PlacementResult place_vm(const hv::VmSpec& spec) = 0;

  /// Terminates a VM and reinflates survivors on its server. Returns false
  /// if the VM is unknown (e.g. already preempted).
  virtual bool remove_vm(std::uint64_t vm_id) = 0;

  /// Server-level revocation (transient market): the server goes offline
  /// and stops accepting placements. In Deflation mode its VMs are
  /// migrated to surviving servers — deflating them and the hosts they
  /// land on as needed — and killed only when no server can absorb them;
  /// in Preemption mode every resident VM is killed. Idempotent on an
  /// already-revoked server.
  virtual RevocationOutcome revoke_server(std::size_t server) = 0;

  /// The provider hands equivalent capacity back: the (empty) server
  /// rejoins the placement pool. Lost VMs do not return.
  virtual void restore_server(std::size_t server) = 0;

  /// Advance-warning drain (timed migration, src/cluster/migration.hpp):
  /// the server stops accepting new placements but its residents keep
  /// running until revoke_server. Cleared by revoke_server and
  /// restore_server.
  virtual void drain_server(std::size_t server) = 0;

  [[nodiscard]] virtual bool server_active(std::size_t server) const = 0;
  [[nodiscard]] virtual std::size_t active_server_count() const = 0;
  [[nodiscard]] virtual std::size_t server_count() const = 0;
  [[nodiscard]] virtual hv::Host& host(std::size_t server) = 0;
  [[nodiscard]] virtual hv::Vm* find_vm(std::uint64_t vm_id) = 0;
  [[nodiscard]] virtual std::optional<std::size_t> server_of(
      std::uint64_t vm_id) const = 0;

  [[nodiscard]] virtual const ClusterStats& stats() const = 0;
  [[nodiscard]] virtual res::ResourceVector total_capacity() const = 0;
  [[nodiscard]] virtual res::ResourceVector total_allocated() const = 0;
  [[nodiscard]] virtual res::ResourceVector total_committed() const = 0;

  /// Global ids of the servers in partition pool `k` (pool 0 = on-demand).
  /// An unpartitioned fleet has a single pool owning every server.
  [[nodiscard]] virtual std::vector<std::size_t> pool_servers(
      std::size_t pool) const = 0;

  /// Observers: deflation events from any server; preemption events when
  /// running in Preemption mode.
  virtual void subscribe_deflation(const DeflationCallback& callback) = 0;
  virtual void subscribe_preemption(PreemptionCallback callback) = 0;
  virtual void subscribe_revocation(RevocationCallback callback) = 0;
  virtual void subscribe_migration(MigrationCallback callback) = 0;

  /// Flushes batched view/aggregate maintenance. Mutations only mark
  /// servers dirty; the simulator calls this once per simulated tick so a
  /// burst of events between ticks costs one rescan per touched server
  /// instead of one per event. Placement flushes on demand regardless, so
  /// skipping this never changes decisions — only when the work happens.
  virtual void flush_views() = 0;
};

class ClusterManager : public ClusterManagerBase {
 public:
  explicit ClusterManager(ClusterConfig config);

  PlacementResult place_vm(const hv::VmSpec& spec) override;
  bool remove_vm(std::uint64_t vm_id) override;
  RevocationOutcome revoke_server(std::size_t server) override;
  void restore_server(std::size_t server) override;
  void drain_server(std::size_t server) override;

  /// Scheduler plumbing for revocations: takes `server` offline and strips
  /// its residents *without* re-placing them — counts the revocation and
  /// returns the displaced specs in migration order (priority descending,
  /// id ascending). The caller owns their fate: `revoke_server` re-places
  /// or kills them inside this manager; the sharded scheduler routes them
  /// through the fleet-wide scheduler instead. Empty optional when the
  /// server was already inactive (idempotency).
  std::optional<std::vector<hv::VmSpec>> take_server_offline(
      std::size_t server);

  [[nodiscard]] bool server_active(std::size_t server) const override {
    return nodes_.at(server)->active;
  }
  [[nodiscard]] std::size_t active_server_count() const override;

  [[nodiscard]] std::size_t server_count() const override {
    return nodes_.size();
  }
  [[nodiscard]] hv::Host& host(std::size_t i) override {
    return nodes_.at(i)->hypervisor.host();
  }
  [[nodiscard]] core::LocalDeflationController& controller(std::size_t i) {
    return *nodes_.at(i)->controller;
  }
  [[nodiscard]] hv::Vm* find_vm(std::uint64_t vm_id) override;
  [[nodiscard]] std::optional<std::size_t> server_of(
      std::uint64_t vm_id) const override;

  [[nodiscard]] const ClusterStats& stats() const override { return stats_; }
  [[nodiscard]] res::ResourceVector total_capacity() const override;
  [[nodiscard]] res::ResourceVector total_allocated() const override;
  [[nodiscard]] res::ResourceVector total_committed() const override;

  void subscribe_deflation(const DeflationCallback& callback) override;
  void subscribe_preemption(PreemptionCallback callback) override {
    preemption_callbacks_.push_back(std::move(callback));
  }
  void subscribe_revocation(RevocationCallback callback) override {
    revocation_callbacks_.push_back(std::move(callback));
  }
  void subscribe_migration(MigrationCallback callback) override {
    migration_callbacks_.push_back(std::move(callback));
  }

  [[nodiscard]] const ClusterPartitions& partitions() const noexcept {
    return partitions_;
  }
  [[nodiscard]] std::vector<std::size_t> pool_servers(
      std::size_t pool) const override;

  /// Refreshes the cached views of every server marked dirty since the
  /// last flush. Mutations (placements, departures, revocations) no longer
  /// rescan eagerly; the views are exact whenever a placement consults
  /// them because place_vm flushes first.
  void flush_views() override;

  /// Free + reclaimable capacity summed over the active servers (exact:
  /// flushes first). O(1) after the flush: every view refresh folds the
  /// server's change into a running fixed-point total, so a flush costs
  /// O(dirty servers), not O(server_count). The sharded scheduler routes
  /// on this, refreshed once per tick for each dirty shard.
  [[nodiscard]] res::ResourceVector aggregate_free();
  /// The same total in fixed-point units (flushes first).
  [[nodiscard]] FixedPointRow aggregate_free_units();
  /// The total recomputed from scratch over the active servers' cached
  /// rows, ignoring the running sum; equals aggregate_free_units() after
  /// any flush (invariant checks).
  [[nodiscard]] FixedPointRow rescan_free_units() const;

  /// Re-resolves the placement scorer from the registry by name (PolicySet
  /// re-binding). Only call at a tick barrier — between flush_views and the
  /// next place_vm — so no in-flight placement straddles two policies.
  /// Throws std::invalid_argument on unknown names (state unchanged).
  void rebind_placement(const std::string& name);

  [[nodiscard]] const PlacementScorer& placement_scorer() const noexcept {
    return *scorer_;
  }

  /// Preemption mode's eviction table (empty in Deflation mode): the
  /// placement table's rows with each server's preemptable allocation
  /// in the deflatable column. Exact after a flush.
  [[nodiscard]] const HostScanTable& eviction_table() const noexcept {
    return evict_scan_;
  }

 private:
  struct ServerNode {
    explicit ServerNode(std::uint64_t id, const ClusterConfig& config);
    hv::SimHypervisor hypervisor;
    std::unique_ptr<core::LocalDeflationController> controller;
    bool active = true;  ///< false while revoked by the transient market
    /// false while draining ahead of an announced revocation: residents
    /// keep running but no new placements land here.
    bool accepting = true;
  };

  /// Rewrites the server's scan-table row and replaces its contribution
  /// to free_units_ with the new row (zero while inactive).
  void refresh_view(std::size_t server);
  /// The server's contribution to the free total from its table row.
  [[nodiscard]] FixedPointRow free_row(std::size_t server) const noexcept;
  /// Queues `server` for a view rescan at the next flush (dedups repeated
  /// mutations of the same server between placements).
  void mark_view_dirty(std::size_t server);
  /// Mirrors active && accepting into the scan tables' eligibility columns.
  void update_eligible(std::size_t server);
  PlacementResult admit(const hv::VmSpec& spec, std::size_t server,
                        double fraction);
  PlacementResult place_with_preemption(const hv::VmSpec& spec,
                                        ServerRange pool);
  /// Smallest launch fraction the configured policy would ever leave the
  /// VM with (deflated-launch lower bound).
  [[nodiscard]] double min_launch_fraction(const hv::VmSpec& spec) const;

  ClusterConfig config_;
  std::shared_ptr<core::DeflationPolicy> policy_;
  /// Resolved placement scorer (registry-backed; see rebind_placement).
  std::shared_ptr<const PlacementScorer> scorer_;
  std::vector<std::unique_ptr<ServerNode>> nodes_;
  ClusterPartitions partitions_;
  std::unordered_map<std::uint64_t, std::size_t> vm_locations_;
  /// SoA per-server scan state: the placement scan and deflation sweeps
  /// read these dense columns instead of chasing per-node structs.
  HostScanTable scan_;
  /// Preemption mode only: scan_'s rows with the deflatable column holding
  /// the summed effective allocation of each server's deflatable
  /// residents, what an on-demand placement may evict. Kept apart because
  /// scan_'s deflatable column feeds the free totals and shard routing.
  HostScanTable evict_scan_;
  std::vector<std::uint8_t> view_dirty_;   ///< per-server dirty flag
  std::vector<std::size_t> dirty_queue_;   ///< servers awaiting a rescan
  /// Free + deflatable capacity in fixed-point units: each server's folded
  /// row, and their running sum (what aggregate_free returns).
  FixedPointScale free_scale_;
  std::vector<FixedPointRow> free_rows_;
  FixedPointRow free_units_{};
  ClusterStats stats_;
  std::vector<PreemptionCallback> preemption_callbacks_;
  std::vector<RevocationCallback> revocation_callbacks_;
  std::vector<MigrationCallback> migration_callbacks_;
};

}  // namespace deflate::cluster
