#include "cluster/sharded_manager.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/profiler.hpp"

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

namespace {

/// Largest shard count the fleet supports: every shard needs at least one
/// server, and a partitioned shard needs one server per pool.
std::size_t clamp_shard_count(const ShardedClusterConfig& config) {
  const std::size_t servers = std::max<std::size_t>(1, config.cluster.server_count);
  const std::size_t min_servers_per_shard =
      config.cluster.partitioned
          ? std::max<std::size_t>(1, config.cluster.pool_weights.size())
          : 1;
  const std::size_t max_shards = std::max<std::size_t>(1, servers / min_servers_per_shard);
  return std::clamp<std::size_t>(config.shard_count, 1, max_shards);
}

}  // namespace

std::unique_ptr<ClusterManagerBase> make_cluster_manager(
    ShardedClusterConfig config) {
  if (config.shard_count <= 1) {
    return std::make_unique<ClusterManager>(std::move(config.cluster));
  }
  return std::make_unique<ShardedClusterManager>(std::move(config));
}

namespace {

ShardedClusterConfig validated(ShardedClusterConfig config) {
  if (config.cluster.server_count == 0) {
    throw std::invalid_argument(
        "ShardedClusterManager: server_count must be >= 1");
  }
  return config;
}

}  // namespace

ShardedClusterManager::ShardedClusterManager(ShardedClusterConfig config)
    : config_(validated(std::move(config))),
      total_servers_(config_.cluster.server_count),
      routing_rng_(util::Rng::keyed(config_.routing_seed, /*stream=*/0x5a4d)),
      selector_(make_shard_selector(shard_selection_of(config_))) {
  const std::size_t shard_count = clamp_shard_count(config_);
  shards_.resize(shard_count);
  dirty_queue_.reserve(shard_count);

  // Near-even contiguous split: the first (total % shards) shards get one
  // extra server, so global ids map to (shard, local) by simple offsets.
  const std::size_t base = total_servers_ / shard_count;
  const std::size_t extra = total_servers_ % shard_count;
  std::size_t next_first = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& shard = shards_[s];
    shard.first = next_first;
    shard.size = base + (s < extra ? 1 : 0);
    next_first += shard.size;

    ClusterConfig shard_config = config_.cluster;
    shard_config.server_count = shard.size;
    shard.manager = std::make_unique<ClusterManager>(std::move(shard_config));
    refresh_shard(shard);

    // Forward preemption-mode evictions with the local server id
    // translated to the global one, and retire the evicted VMs from the
    // routing map. Shards never fire revocation or migration callbacks:
    // revoke_server below strips the server with take_server_offline and
    // fires those callbacks itself.
    const std::size_t first = shard.first;
    shard.manager->subscribe_preemption(
        [this, first](const hv::VmSpec& spec, std::uint64_t host) {
          vm_shard_.erase(spec.id);
          for (const auto& callback : preemption_callbacks_) {
            callback(spec, first + host);
          }
        });
  }
}

void ShardedClusterManager::mark_dirty(std::size_t s) {
  if (shards_[s].dirty) return;
  shards_[s].dirty = true;
  dirty_queue_.push_back(s);
}

void ShardedClusterManager::refresh_shard(Shard& shard) {
  shard.free = shard.manager->aggregate_free();
}

void ShardedClusterManager::flush_views() {
  DEFLATE_PROFILE_SCOPE("sharded.flush_views");
  // A refresh costs O(the shard's dirty servers): each shard keeps its
  // aggregate as an incremental fixed-point sum.
  for (const std::size_t s : dirty_queue_) {
    refresh_shard(shards_[s]);
    shards_[s].dirty = false;
  }
  dirty_queue_.clear();
}

double ShardedClusterManager::shard_score(const Shard& shard,
                                          const res::ResourceVector& demand) {
  double score = std::numeric_limits<double>::infinity();
  bool any_dimension = false;
  for (const res::Resource r : res::all_resources) {
    if (demand[r] <= 0.0) continue;
    any_dimension = true;
    score = std::min(score, shard.free[r] / demand[r]);
  }
  return any_dimension ? score : shard.free.norm();
}

namespace {

/// Zero-copy ShardScores adapter over the scheduler's cached aggregates;
/// lives on route_picks' stack for one placement.
class CachedShardScores final : public ShardScores {
 public:
  using ScoreFn = double (*)(const void*, std::size_t,
                             const res::ResourceVector&);
  CachedShardScores(const void* shards, std::size_t count,
                    const res::ResourceVector& demand, ScoreFn fn) noexcept
      : shards_(shards), count_(count), demand_(demand), fn_(fn) {}
  [[nodiscard]] std::size_t count() const noexcept override { return count_; }
  [[nodiscard]] double score(std::size_t shard) const override {
    return fn_(shards_, shard, demand_);
  }

 private:
  const void* shards_;
  std::size_t count_;
  const res::ResourceVector& demand_;
  ScoreFn fn_;
};

}  // namespace

std::vector<std::size_t> ShardedClusterManager::route_picks(
    const res::ResourceVector& demand) {
  const CachedShardScores scores(
      shards_.data(), shards_.size(), demand,
      [](const void* shards, std::size_t s, const res::ResourceVector& d) {
        return shard_score(static_cast<const Shard*>(shards)[s], d);
      });
  std::vector<std::size_t> picks;
  selector_->route(scores, routing_rng_, picks);
  return picks;
}

std::vector<std::size_t> ShardedClusterManager::route_tail(
    const res::ResourceVector& demand,
    const std::vector<std::size_t>& tried) {
  // Fallback: every remaining shard by descending cached score (ties by
  // shard index for determinism). Guarantees a placement is rejected only
  // when every shard's exact scan rejected it.
  std::vector<std::size_t> rest;
  rest.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (std::find(tried.begin(), tried.end(), s) == tried.end()) {
      rest.push_back(s);
    }
  }
  std::sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
    const double sa = shard_score(shards_[a], demand);
    const double sb = shard_score(shards_[b], demand);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return rest;
}

PlacementResult ShardedClusterManager::place_vm(const hv::VmSpec& spec) {
  DEFLATE_PROFILE_SCOPE("sharded.place");
  const res::ResourceVector demand = spec.vector();
  // Per-shard stats deltas of failed attempts this placement; all but the
  // "real" one (first attempt of a full rejection) are routing noise to be
  // subtracted from the aggregated stats.
  struct FailedAttempt {
    std::uint64_t attempts = 0;
    std::uint64_t failures = 0;
    std::uint64_t rejections = 0;
  };
  std::vector<FailedAttempt> failed;

  const auto try_shard = [&](std::size_t s,
                             PlacementResult& result) -> bool {
    Shard& shard = shards_[s];
    const ClusterStats& before = shard.manager->stats();
    const std::uint64_t attempts0 = before.reclamation_attempts;
    const std::uint64_t failures0 = before.reclamation_failures;
    const std::uint64_t rejections0 = before.rejections;
    result = shard.manager->place_vm(spec);
    if (!result.ok()) {
      const ClusterStats& after = shard.manager->stats();
      failed.push_back({after.reclamation_attempts - attempts0,
                        after.reclamation_failures - failures0,
                        after.rejections - rejections0});
      // Even a failed attempt can deflate bystanders before rejecting;
      // keep the cached aggregate eligible for the next flush.
      mark_dirty(s);
      return false;
    }
    result.host_id += shard.first;
    vm_shard_[spec.id] = s;
    // Cheap estimate; the next flush recomputes exactly.
    shard.free =
        (shard.free - demand * result.launch_fraction).clamped_nonneg();
    mark_dirty(s);
    return true;
  };

  const auto finish = [&](bool placed) {
    // On success every failed attempt was noise; on a full rejection the
    // first attempt stands in for the flat manager's single failed scan
    // (one rejection, one set of reclamation counts) and the rest is
    // noise.
    for (std::size_t i = placed ? 0 : 1; i < failed.size(); ++i) {
      spurious_rejections_ += failed[i].rejections;
      spurious_reclamation_attempts_ += failed[i].attempts;
      spurious_reclamation_failures_ += failed[i].failures;
    }
  };

  PlacementResult result;
  // Common case: a policy pick with cached headroom takes the VM and the
  // score-sorted fallback tail is never materialized.
  const std::vector<std::size_t> picks = route_picks(demand);
  for (const std::size_t s : picks) {
    if (try_shard(s, result)) {
      finish(true);
      return result;
    }
  }
  for (const std::size_t s : route_tail(demand, picks)) {
    if (try_shard(s, result)) {
      finish(true);
      return result;
    }
  }
  finish(false);
  result = PlacementResult{};
  result.needed_reclamation = true;
  result.status = PlacementResult::Status::Rejected;
  return result;
}

bool ShardedClusterManager::remove_vm(std::uint64_t vm_id) {
  const auto it = vm_shard_.find(vm_id);
  if (it == vm_shard_.end()) return false;
  const std::size_t s = it->second;
  Shard& shard = shards_[s];
  vm_shard_.erase(it);
  const std::optional<res::ResourceVector> freed =
      shard.manager->depart_vm(vm_id);
  if (!freed) return false;
  shard.free += *freed;
  mark_dirty(s);
  return true;
}

RevocationOutcome ShardedClusterManager::revoke_server(std::size_t server) {
  const std::size_t s = shard_of_server(server);
  Shard& shard = shards_[s];
  RevocationOutcome outcome;
  // Strip the residents at the shard level (counts the revocation there),
  // but re-place them here: the shard-local place_vm only scans its own
  // shard, which used to kill VMs whenever the home shard was full even
  // with fleet-wide headroom to spare.
  const std::optional<std::vector<hv::VmSpec>> residents =
      shard.manager->take_server_offline(server - shard.first);
  if (!residents) return outcome;  // already revoked: idempotent
  outcome.vms_displaced = residents->size();
  // Whole-server capacity vanished; route the displaced VMs (and everyone
  // after them) on a fresh aggregate instead of chasing it.
  refresh_shard(shard);

  for (const hv::VmSpec& spec : *residents) {
    vm_shard_.erase(spec.id);
    if (config_.cluster.mode == ReclamationMode::Deflation) {
      const PlacementResult placed = place_vm(spec);  // cross-shard fallback
      if (placed.ok()) {
        ++outcome.vms_migrated;
        ++overlay_.revocation_migrations;
        for (const auto& callback : migration_callbacks_) {
          callback(spec, server, placed.host_id, placed.launch_fraction);
        }
        continue;
      }
    }
    ++outcome.vms_killed;
    ++overlay_.revocation_kills;
    ++overlay_.preemptions;
    for (const auto& callback : preemption_callbacks_) callback(spec, server);
  }
  for (const auto& callback : revocation_callbacks_) callback(server, outcome);
  return outcome;
}

void ShardedClusterManager::restore_server(std::size_t server) {
  const std::size_t s = shard_of_server(server);
  Shard& shard = shards_[s];
  shard.manager->restore_server(server - shard.first);
  refresh_shard(shard);
}

void ShardedClusterManager::drain_server(std::size_t server) {
  const std::size_t s = shard_of_server(server);
  shards_[s].manager->drain_server(server - shards_[s].first);
  // The cached aggregate still counts the draining server's free capacity;
  // that only skews routing order — the shard's exact scan excludes it.
}

bool ShardedClusterManager::server_active(std::size_t server) const {
  const std::size_t s = shard_of_server(server);
  return shards_[s].manager->server_active(server - shards_[s].first);
}

std::size_t ShardedClusterManager::active_server_count() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) count += shard.manager->active_server_count();
  return count;
}

hv::Host& ShardedClusterManager::host(std::size_t server) {
  const std::size_t s = shard_of_server(server);
  return shards_[s].manager->host(server - shards_[s].first);
}

hv::Vm* ShardedClusterManager::find_vm(std::uint64_t vm_id) {
  const auto it = vm_shard_.find(vm_id);
  if (it == vm_shard_.end()) return nullptr;
  return shards_[it->second].manager->find_vm(vm_id);
}

std::optional<std::size_t> ShardedClusterManager::server_of(
    std::uint64_t vm_id) const {
  const auto it = vm_shard_.find(vm_id);
  if (it == vm_shard_.end()) return std::nullopt;
  const Shard& shard = shards_[it->second];
  const auto local = shard.manager->server_of(vm_id);
  if (!local) return std::nullopt;
  return shard.first + *local;
}

const ClusterStats& ShardedClusterManager::stats() const {
  stats_ = ClusterStats{};
  for (const Shard& shard : shards_) {
    const ClusterStats& s = shard.manager->stats();
    stats_.placements += s.placements;
    stats_.reclamation_attempts += s.reclamation_attempts;
    stats_.reclamation_failures += s.reclamation_failures;
    stats_.deflated_launches += s.deflated_launches;
    stats_.preemptions += s.preemptions;
    stats_.rejections += s.rejections;
    stats_.revocations += s.revocations;
    stats_.restorations += s.restorations;
    stats_.revocation_migrations += s.revocation_migrations;
    stats_.revocation_kills += s.revocation_kills;
  }
  stats_.rejections -= spurious_rejections_;
  stats_.reclamation_attempts -= spurious_reclamation_attempts_;
  stats_.reclamation_failures -= spurious_reclamation_failures_;
  stats_.revocation_migrations += overlay_.revocation_migrations;
  stats_.revocation_kills += overlay_.revocation_kills;
  stats_.preemptions += overlay_.preemptions;
  return stats_;
}

res::ResourceVector ShardedClusterManager::total_capacity() const {
  res::ResourceVector total;
  for (const Shard& shard : shards_) total += shard.manager->total_capacity();
  return total;
}

res::ResourceVector ShardedClusterManager::total_allocated() const {
  res::ResourceVector total;
  for (const Shard& shard : shards_) total += shard.manager->total_allocated();
  return total;
}

res::ResourceVector ShardedClusterManager::total_committed() const {
  res::ResourceVector total;
  for (const Shard& shard : shards_) total += shard.manager->total_committed();
  return total;
}

std::vector<std::size_t> ShardedClusterManager::pool_servers(
    std::size_t pool) const {
  std::vector<std::size_t> servers;
  for (const Shard& shard : shards_) {
    for (const std::size_t local : shard.manager->pool_servers(pool)) {
      servers.push_back(shard.first + local);
    }
  }
  return servers;
}

void ShardedClusterManager::subscribe_deflation(
    const DeflationCallback& callback) {
  for (Shard& shard : shards_) shard.manager->subscribe_deflation(callback);
}

std::size_t ShardedClusterManager::shard_of_server(std::size_t server) const {
  if (server >= total_servers_) {
    throw std::out_of_range("ShardedClusterManager: server id out of range");
  }
  // Shards are contiguous and near-even; binary search the offsets.
  const auto it = std::upper_bound(
      shards_.begin(), shards_.end(), server,
      [](std::size_t id, const Shard& shard) { return id < shard.first; });
  return static_cast<std::size_t>(std::distance(shards_.begin(), it)) - 1;
}

}  // namespace deflate::cluster
