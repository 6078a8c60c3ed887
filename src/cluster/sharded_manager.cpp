#include "cluster/sharded_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace deflate::cluster {

const char* shard_selection_name(ShardSelectionPolicy p) noexcept {
  switch (p) {
    case ShardSelectionPolicy::PowerOfTwoChoices: return "p2c";
    case ShardSelectionPolicy::LeastLoaded: return "least-loaded";
    case ShardSelectionPolicy::RoundRobin: return "round-robin";
  }
  return "?";
}

void ShardSelector::push_if_fits(const ShardScores& scores, std::size_t shard,
                                 std::vector<std::size_t>& picks) {
  if (scores.score(shard) >= 1.0 &&
      std::find(picks.begin(), picks.end(), shard) == picks.end()) {
    picks.push_back(shard);
  }
}

// --- builtin shard selectors ------------------------------------------------

namespace {

/// Two uniform draws from the routing stream (second excludes the first),
/// best of the two by cached score first. Draw order and a_first's >= tie
/// preference are pinned by the golden/parity suites.
class PowerOfTwoSelector final : public ShardSelector {
 public:
  void route(const ShardScores& scores, util::Rng& rng,
             std::vector<std::size_t>& picks) override {
    const std::size_t n = scores.count();
    if (n < 2) return;
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (b >= a) ++b;  // distinct second choice, uniform over the rest
    const bool a_first = scores.score(a) >= scores.score(b);
    push_if_fits(scores, a_first ? a : b, picks);
    push_if_fits(scores, a_first ? b : a, picks);
  }
};

/// Proposes nothing: the score-sorted fallback tail IS least-loaded order.
class LeastLoadedSelector final : public ShardSelector {
 public:
  void route(const ShardScores&, util::Rng&,
             std::vector<std::size_t>&) override {}
};

/// Rotates through shards regardless of load; the cursor lives in the
/// selector, so re-binding the policy resets the rotation.
class RoundRobinSelector final : public ShardSelector {
 public:
  void route(const ShardScores& scores, util::Rng&,
             std::vector<std::size_t>& picks) override {
    const std::size_t n = scores.count();
    if (n == 0) return;
    const std::size_t start = next_++ % n;
    for (std::size_t i = 0; i < n; ++i) {
      push_if_fits(scores, (start + i) % n, picks);
    }
  }

 private:
  std::size_t next_ = 0;
};

}  // namespace

void ShardSelectionSurface::register_builtins(
    policy::PolicyRegistry<ShardSelectionSurface>& registry) {
  registry.add("p2c",
               "power-of-two-choices: two random shards, best cached score "
               "wins",
               [] { return std::make_unique<PowerOfTwoSelector>(); },
               {"power-of-two"});
  registry.add("least-loaded", "best cached aggregate score, O(shards)",
               [] { return std::make_unique<LeastLoadedSelector>(); });
  registry.add("round-robin", "rotate through shards regardless of load",
               [] { return std::make_unique<RoundRobinSelector>(); });
}

std::unique_ptr<ShardSelector> make_shard_selector(const std::string& name) {
  const auto* entry = ShardSelectionRegistry::instance().find(name);
  if (entry == nullptr) {
    throw std::invalid_argument(
        "unknown shard-selection policy '" + name + "' (expected " +
        policy::joined_policy_names<ShardSelectionSurface>() + ")");
  }
  return entry->make();
}

std::string shard_selection_of(const ShardedClusterConfig& config) {
  return config.selection_name.empty() ? shard_selection_name(config.selection)
                                       : config.selection_name;
}

std::unique_ptr<ClusterManagerBase> make_cluster_manager(
    ShardedClusterConfig config) {
  return std::make_unique<ClusterManager>(std::move(config));
}

}  // namespace deflate::cluster
