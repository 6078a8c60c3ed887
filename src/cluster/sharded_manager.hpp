// Shard routing: how a sharded ClusterManager picks the shard that
// attempts a placement, and the config that splits a fleet into shards.
//
// ClusterManager (cluster_manager.hpp) splits its servers into contiguous
// shards. Each shard is an id range with its own partition pools and
// placement index, so the exact in-shard pick costs O(log shard) and a
// placement on a sharded fleet costs one routing decision plus one
// in-shard pick per shard tried. Routing reads each shard's *cached*
// aggregate free capacity (available + deflatable over its active
// servers) through a pluggable, registry-named shard-selection policy
// (power-of-two-choices by default) and falls back to every other shard
// in descending cached score, so a placement is rejected only when every
// shard rejects it.
//
// Aggregates are maintained as a dirty set: mutations apply a cheap
// incremental estimate and mark the shard dirty; the exact value is
// re-read in flush_views(), which the simulator calls once per simulated
// tick. The exact value is itself incremental: each shard keeps its free
// + deflatable total as int64 fixed-point sums that every server-view
// refresh updates (ClusterManager::aggregate_free), so a flush costs
// O(dirty servers), and the totals are independent of the order that
// produced them. Stale aggregates only ever affect routing *order*.
//
// With one shard there is no routing: a placement goes straight to the
// shard, exactly the flat manager.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hpp"
#include "policy/registry.hpp"
#include "util/rng.hpp"

namespace deflate::cluster {

/// How a sharded ClusterManager picks the shard that attempts a placement
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
/// manager's shard_score); >= 1.0 means the shard fits the demand.
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
/// from the manager's routing rng so the deterministic routing stream is
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
/// selector per manager (selectors may be stateful).
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

/// Builds the fleet a config calls for: a ClusterManager with
/// `shard_count` shards (<= 1 is the flat fleet). The one factory every
/// fleet-construction site shares (simulator, service, benches, tools).
[[nodiscard]] std::unique_ptr<ClusterManagerBase> make_cluster_manager(
    ShardedClusterConfig config);

}  // namespace deflate::cluster
