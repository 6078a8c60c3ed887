// Sharded cluster manager: scales placement to 10k+ servers.
//
// The flat ClusterManager scans every candidate server per placement,
// which caps fleets at a few hundred servers. ShardedClusterManager splits
// the fleet into contiguous shards of servers, each owned by an ordinary
// ClusterManager, and routes placements with a cheap shard-selection
// policy (power-of-two-choices by default) over *cached* per-shard
// aggregate free capacity. The expensive exact scan then runs only inside
// the chosen shard, so placement cost drops from O(fleet) to
// O(fleet / shards) + O(shards).
//
// Aggregates are maintained as a dirty set: mutations apply a cheap
// incremental estimate and mark the shard dirty; the exact value is
// re-read in flush_views(), which the simulator calls once per simulated
// tick. The exact value is itself incremental: each shard keeps its free
// + deflatable total as int64 fixed-point sums that every server-view
// refresh updates (ClusterManager::aggregate_free), so a flush costs
// O(dirty servers), not O(shard), and the totals are independent of the
// order that produced them. Placement, flushes and routing all run on the
// caller's thread. Stale aggregates only ever affect routing *order* —
// every shard remains a fallback candidate, and the shard-internal scan is
// always exact — so a placement is rejected only when every shard rejects
// it.
//
// Server ids: shard s owns the contiguous global range
// [first_s, first_s + size_s). All public parameters, PlacementResults and
// callbacks carry global ids (the flat manager's contract); translation
// to shard-local ids happens entirely inside this class. With
// shard_count == 1 the scheduler degenerates to the flat manager:
// identical decisions, identical stats.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hpp"
#include "policy/registry.hpp"
#include "util/rng.hpp"

namespace deflate::cluster {

/// How the scheduler picks the shard that gets to attempt a placement
/// first. All policies fall back to the remaining shards (ordered by
/// cached aggregate capacity) when the preferred shard rejects. An alias
/// of the shard-selection registry's builtins: configs resolve it through
/// its primary name.
enum class ShardSelectionPolicy {
  /// Sample two distinct shards, route to the one whose cached aggregate
  /// fits more copies of the demand. O(1) per placement and within a
  /// constant of least-loaded balance (the classic two-choices result).
  PowerOfTwoChoices,
  /// Scan every shard's cached aggregate and take the best. O(shards).
  LeastLoaded,
  /// Rotate through shards regardless of load.
  RoundRobin,
};

/// The registry primary name `p` aliases.
[[nodiscard]] const char* shard_selection_name(ShardSelectionPolicy p) noexcept;

/// Read-only per-shard routing scores for one placement. score(s) is how
/// many copies of the demand shard s's cached aggregate could hold (the
/// scheduler's shard_score); >= 1.0 means the shard fits the demand.
class ShardScores {
 public:
  virtual ~ShardScores() = default;
  [[nodiscard]] virtual std::size_t count() const noexcept = 0;
  [[nodiscard]] virtual double score(std::size_t shard) const = 0;
};

/// Strategy object behind ShardSelectionPolicy: appends the shards that
/// should attempt the placement ahead of the score-sorted fallback tail,
/// in preference order, via push_if_fits (which enforces the shared
/// contract: a pick must fit the demand and may not repeat). Selectors may
/// hold per-manager state (round-robin's cursor); randomness always comes
/// from the scheduler's routing rng so the deterministic routing stream is
/// policy-owned, never selector-owned.
class ShardSelector {
 public:
  virtual ~ShardSelector() = default;
  virtual void route(const ShardScores& scores, util::Rng& rng,
                     std::vector<std::size_t>& picks) = 0;

 protected:
  /// A policy pick only jumps the fallback queue when its cached aggregate
  /// fits the demand (score >= 1); duplicates are dropped.
  static void push_if_fits(const ShardScores& scores, std::size_t shard,
                           std::vector<std::size_t>& picks);
};

/// Registry surface for shard-selection policies. Factories build a fresh
/// selector per scheduler (selectors may be stateful).
struct ShardSelectionSurface {
  static constexpr const char* kSurfaceName = "shard-selection";
  static constexpr const char* kSurfaceDescription =
      "which shard attempts a placement first (sharded scheduler routing)";
  using Factory = std::function<std::unique_ptr<ShardSelector>()>;
  static void register_builtins(policy::PolicyRegistry<ShardSelectionSurface>&);
};

using ShardSelectionRegistry = policy::PolicyRegistry<ShardSelectionSurface>;

/// Builds a registered selector by name (aliases accepted); throws
/// std::invalid_argument naming the valid choices when unknown.
[[nodiscard]] std::unique_ptr<ShardSelector> make_shard_selector(
    const std::string& name);

struct ShardedClusterConfig {
  /// Fleet-wide configuration; `cluster.server_count` is the total fleet
  /// size, split near-evenly across shards.
  ClusterConfig cluster;
  std::size_t shard_count = 16;
  /// An alias, consulted only when `selection_name` is empty.
  ShardSelectionPolicy selection = ShardSelectionPolicy::PowerOfTwoChoices;
  /// Registry name of the shard selector; see shard_selection_of. Unknown
  /// names throw std::invalid_argument at construction.
  std::string selection_name;
  /// Seed of the (deterministic) routing stream used by power-of-two
  /// sampling; independent of the market / trace seeds.
  std::uint64_t routing_seed = 42;
  /// ignored: the fleet places serially; delete once perfbench/ stops assigning it
  std::size_t worker_threads = 0;
};

/// The shard selector `config` selects: `selection_name`, or the primary
/// name `selection` aliases when the name is empty.
[[nodiscard]] std::string shard_selection_of(
    const ShardedClusterConfig& config);

/// Builds the manager a config calls for: the flat ClusterManager when
/// `shard_count <= 1` (the degenerate case, without the wrapper), the
/// sharded scheduler otherwise. The one factory every fleet-construction
/// site shares (simulator, benches, tools).
[[nodiscard]] std::unique_ptr<ClusterManagerBase> make_cluster_manager(
    ShardedClusterConfig config);

class ShardedClusterManager : public ClusterManagerBase {
 public:
  explicit ShardedClusterManager(ShardedClusterConfig config);

  PlacementResult place_vm(const hv::VmSpec& spec) override;
  bool remove_vm(std::uint64_t vm_id) override;
  /// Displaces the revoked server's VMs through the *top-level* scheduler:
  /// the shard that lost the server gets first refusal via normal routing,
  /// but a full home shard no longer kills VMs the rest of the fleet could
  /// absorb — the score-ordered fallback shops every shard, exactly like a
  /// fresh arrival (flat-manager kill parity; see test_sharded_manager).
  RevocationOutcome revoke_server(std::size_t server) override;
  void restore_server(std::size_t server) override;
  void drain_server(std::size_t server) override;

  [[nodiscard]] bool server_active(std::size_t server) const override;
  [[nodiscard]] std::size_t active_server_count() const override;
  [[nodiscard]] std::size_t server_count() const override {
    return total_servers_;
  }
  [[nodiscard]] hv::Host& host(std::size_t server) override;
  [[nodiscard]] hv::Vm* find_vm(std::uint64_t vm_id) override;
  [[nodiscard]] std::optional<std::size_t> server_of(
      std::uint64_t vm_id) const override;

  /// Aggregated over shards, with routing noise removed: when a placement
  /// shops across several shards, only one attempt's rejection/reclamation
  /// counts survive (the successful one, or the first failed one on a
  /// full rejection), so rejections, reclamation_attempts and
  /// reclamation_failures keep the flat manager's end-to-end semantics
  /// and the derived failure probabilities stay comparable.
  [[nodiscard]] const ClusterStats& stats() const override;
  [[nodiscard]] res::ResourceVector total_capacity() const override;
  [[nodiscard]] res::ResourceVector total_allocated() const override;
  [[nodiscard]] res::ResourceVector total_committed() const override;

  [[nodiscard]] std::vector<std::size_t> pool_servers(
      std::size_t pool) const override;

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

  /// Tick-boundary barrier: flushes the per-server views of every shard
  /// marked dirty since the last flush and re-reads its exact aggregate.
  /// One serial pass over the dirty shards, each refreshing only its
  /// dirty servers.
  void flush_views() override;

  // --- shard topology (introspection / tests) -------------------------------
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_of_server(std::size_t server) const;
  [[nodiscard]] ClusterManager& shard(std::size_t s) {
    return *shards_.at(s).manager;
  }
  /// The routing aggregate cached for shard `s` (exact after flush_views).
  [[nodiscard]] const res::ResourceVector& cached_shard_free(
      std::size_t s) const {
    return shards_.at(s).free;
  }

 private:
  struct Shard {
    std::size_t first = 0;  ///< global id of the shard's server 0
    std::size_t size = 0;
    std::unique_ptr<ClusterManager> manager;
    /// Cached available + deflatable aggregate over the shard's active
    /// servers; incrementally estimated between flushes.
    res::ResourceVector free;
    bool dirty = false;
  };

  /// Queues shard `s` for the next flush.
  void mark_dirty(std::size_t s);
  /// Re-reads the shard's exact aggregate. Does not clear the dirty flag:
  /// direct callers outside the flush at worst schedule one redundant
  /// refresh.
  void refresh_shard(Shard& shard);
  /// Copies of the demand the shard's cached aggregate could hold; the
  /// routing score (larger = more headroom).
  [[nodiscard]] static double shard_score(const Shard& shard,
                                          const res::ResourceVector& demand);
  /// The selection policy's preferred shards for one placement (only those
  /// whose cached aggregate fits the demand); at most two for
  /// power-of-two. The sorted fallback tail is built separately — and only
  /// when every pick rejected — by route_tail.
  [[nodiscard]] std::vector<std::size_t> route_picks(
      const res::ResourceVector& demand);
  /// Every shard not in `tried`, by descending cached score (ties by
  /// index).
  [[nodiscard]] std::vector<std::size_t> route_tail(
      const res::ResourceVector& demand,
      const std::vector<std::size_t>& tried);

  ShardedClusterConfig config_;
  std::size_t total_servers_ = 0;
  std::vector<Shard> shards_;
  std::vector<std::size_t> dirty_queue_;
  std::unordered_map<std::uint64_t, std::size_t> vm_shard_;
  util::Rng routing_rng_;
  /// Registry-resolved routing policy (owns its own state, e.g. the
  /// round-robin cursor).
  std::unique_ptr<ShardSelector> selector_;
  /// Stats increments from failed shard attempts that were routing noise
  /// (the placement landed elsewhere, or duplicated a rejection already
  /// charged to the first attempt): subtracted from the per-shard sums so
  /// stats() stays end-to-end comparable with the flat manager.
  std::uint64_t spurious_rejections_ = 0;
  std::uint64_t spurious_reclamation_attempts_ = 0;
  std::uint64_t spurious_reclamation_failures_ = 0;
  /// Revocation displacement runs at this level (cross-shard), not inside
  /// the shards, so its migration/kill/preemption counts live here and are
  /// added to the per-shard sums by stats().
  ClusterStats overlay_;
  mutable ClusterStats stats_;
  std::vector<PreemptionCallback> preemption_callbacks_;
  std::vector<RevocationCallback> revocation_callbacks_;
  std::vector<MigrationCallback> migration_callbacks_;
};

}  // namespace deflate::cluster
