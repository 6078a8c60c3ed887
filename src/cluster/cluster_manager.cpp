#include "cluster/cluster_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "cluster/sharded_manager.hpp"

#include "mechanisms/mechanism.hpp"
#include "util/profiler.hpp"

namespace deflate::cluster {

namespace {

/// Granularity of deflated-launch attempts (fraction steps).
constexpr double kDeflatedLaunchStep = 0.05;

/// Rejects configs the manager cannot serve before any member is built: a
/// zero-server fleet would leave every partition pool naming a server
/// that does not exist.
ClusterConfig validated(ClusterConfig config) {
  if (config.server_count == 0) {
    throw std::invalid_argument("ClusterManager: server_count must be >= 1");
  }
  return config;
}

/// Largest shard count the fleet supports: every shard needs at least one
/// server, and a partitioned shard needs one server per pool.
std::size_t clamp_shard_count(const ShardedClusterConfig& config) {
  const std::size_t min_servers_per_shard =
      config.cluster.partitioned
          ? std::max<std::size_t>(1, config.cluster.pool_weights.size())
          : 1;
  const std::size_t max_shards = std::max<std::size_t>(
      1, config.cluster.server_count / min_servers_per_shard);
  return std::clamp<std::size_t>(config.shard_count, 1, max_shards);
}

ShardedClusterConfig one_shard(ClusterConfig config) {
  ShardedClusterConfig sharded;
  sharded.cluster = std::move(config);
  sharded.shard_count = 1;
  return sharded;
}

/// Per-server bound on free + deflatable capacity for the fixed-point
/// scale: free capacity is at most the capacity, and reclaimable headroom
/// is at most what the residents hold. The factor leaves slack for
/// overcommitted allocations; quantize clamps anything beyond it.
constexpr double kFreeRowBound = 4.0;

/// What evicting every deflatable resident would free: their effective
/// allocations summed in residence order.
res::ResourceVector preemptable_allocation(const hv::Host& host) {
  res::ResourceVector preemptable;
  for (const hv::Vm* vm : host.vms()) {
    if (vm->spec().deflatable) preemptable += vm->effective_allocation();
  }
  return preemptable;
}

}  // namespace

FixedPointScale::FixedPointScale(const res::ResourceVector& row_bound,
                                 std::size_t rows)
    : bound_(row_bound.clamped_nonneg()) {
  for (const res::Resource r : res::all_resources) {
    const double total =
        bound_[r] * static_cast<double>(std::max<std::size_t>(rows, 1));
    if (!(total > 0.0)) continue;  // quantum 1; every value clamps to 0
    int magnitude = 0;             // total < 2^magnitude
    (void)std::frexp(total, &magnitude);
    exponent_[static_cast<std::size_t>(r)] = magnitude - 62;
  }
}

FixedPointRow FixedPointScale::quantize(
    const res::ResourceVector& v) const noexcept {
  FixedPointRow units{};
  for (const res::Resource r : res::all_resources) {
    const auto k = static_cast<std::size_t>(r);
    const double clamped = std::clamp(v[r], -bound_[r], bound_[r]);
    // Scaling by a power of two is exact; only the rounding drops bits.
    units[k] = std::llround(std::ldexp(clamped, -exponent_[k]));
  }
  return units;
}

res::ResourceVector FixedPointScale::to_vector(
    const FixedPointRow& units) const noexcept {
  res::ResourceVector v;
  for (const res::Resource r : res::all_resources) {
    const auto k = static_cast<std::size_t>(r);
    v[r] = std::ldexp(static_cast<double>(units[k]), exponent_[k]);
  }
  return v;
}

std::string placement_policy_of(const ClusterConfig& config) {
  return config.placement_name.empty()
             ? placement_strategy_name(config.placement)
             : config.placement_name;
}

ClusterManager::Shard::Shard(
    std::size_t first_id, std::size_t servers, const ClusterConfig& config,
    const std::shared_ptr<const PlacementScorer>& scorer)
    : first(first_id),
      size(servers),
      partitions(config.partitioned
                     ? ClusterPartitions(servers, config.pool_weights)
                     : ClusterPartitions::single_pool(servers)),
      scan(scorer),
      evict_scan(scorer),
      free_scale(config.server_capacity * kFreeRowBound, servers) {
  scan.resize(servers, config.server_capacity);
  if (config.mode == ReclamationMode::Preemption) {
    evict_scan.resize(servers, config.server_capacity);
  }
  dirty_views.reserve(servers);
}

ClusterManager::ClusterManager(ClusterConfig config)
    : ClusterManager(one_shard(std::move(config))) {}

ClusterManager::ClusterManager(ShardedClusterConfig config)
    : config_(validated(config.cluster)),
      policy_(core::make_policy(config_.policy)),
      scorer_(make_placement_scorer(placement_policy_of(config_))),
      routing_rng_(util::Rng::keyed(config.routing_seed, /*stream=*/0x5a4d)),
      selector_(make_shard_selector(shard_selection_of(config))) {
  const std::size_t servers = config_.server_count;
  const std::size_t shard_count = clamp_shard_count(config);
  std::shared_ptr<mech::DeflationMechanism> mechanism =
      mech::make_mechanism(config_.mechanism);
  nodes_.reserve(servers);
  view_dirty_.assign(servers, 0);
  free_rows_.assign(servers, FixedPointRow{});
  shards_.reserve(shard_count);
  dirty_shards_.reserve(shard_count);

  // Near-even contiguous split: the first (servers % shards) shards get
  // one extra server, so global ids map to (shard, row) by offsets.
  const std::size_t base = servers / shard_count;
  const std::size_t extra = servers % shard_count;
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& shard = shards_.emplace_back(
        nodes_.size(), base + (s < extra ? 1 : 0), config_, scorer_);
    for (std::size_t row = 0; row < shard.size; ++row) {
      // hv::Host can be neither copied nor moved, so make_unique cannot
      // forward one; the node is brace-initialized in place instead.
      auto node = std::unique_ptr<ServerNode>(
          new ServerNode{{nodes_.size(), config_.server_capacity}});
      node->controller = std::make_unique<core::LocalDeflationController>(
          node->host, policy_, mechanism);
      nodes_.push_back(std::move(node));
      refresh_view(shard, shard.first + row);
    }
  }
  if (routed()) {
    for (Shard& shard : shards_) refresh_routing(shard);
  }
}

ClusterManager::~ClusterManager() = default;

std::size_t ClusterManager::shard_of_server(std::size_t server) const {
  if (server >= nodes_.size()) {
    throw std::out_of_range("ClusterManager: server id out of range");
  }
  // Shards are contiguous and near-even; binary search the offsets.
  const auto it = std::upper_bound(
      shards_.begin(), shards_.end(), server,
      [](std::size_t id, const Shard& shard) { return id < shard.first; });
  return static_cast<std::size_t>(std::distance(shards_.begin(), it)) - 1;
}

ServerRange ClusterManager::shard_servers(std::size_t s) const {
  const Shard& shard = shards_.at(s);
  return {shard.first, shard.first + shard.size};
}

void ClusterManager::mark_view_dirty(Shard& shard, std::size_t server) {
  if (view_dirty_[server]) return;
  view_dirty_[server] = 1;
  shard.dirty_views.push_back(server);
}

void ClusterManager::flush_shard(Shard& shard) {
  DEFLATE_PROFILE_SCOPE("cluster.flush_views");
  for (const std::size_t server : shard.dirty_views) {
    view_dirty_[server] = 0;
    refresh_view(shard, server);
  }
  shard.dirty_views.clear();
}

void ClusterManager::flush_views() {
  if (!routed()) {
    flush_shard(shards_.front());
    return;
  }
  DEFLATE_PROFILE_SCOPE("sharded.flush_views");
  // A refresh costs O(the shard's dirty servers): each shard keeps its
  // aggregate as an incremental fixed-point sum.
  for (const std::size_t s : dirty_shards_) {
    refresh_routing(shards_[s]);
    shards_[s].dirty = false;
  }
  dirty_shards_.clear();
}

res::ResourceVector ClusterManager::aggregate_free(std::size_t s) {
  return shards_.at(s).free_scale.to_vector(aggregate_free_units(s));
}

FixedPointRow ClusterManager::aggregate_free_units(std::size_t s) {
  Shard& shard = shards_.at(s);
  flush_shard(shard);
  return shard.free_units;
}

FixedPointRow ClusterManager::rescan_free_units(std::size_t s) const {
  const Shard& shard = shards_.at(s);
  FixedPointRow total{};
  for (std::size_t i = shard.first; i < shard.first + shard.size; ++i) {
    const FixedPointRow row = free_row(shard, i);
    for (std::size_t k = 0; k < total.size(); ++k) total[k] += row[k];
  }
  return total;
}

FixedPointRow ClusterManager::free_row(const Shard& shard,
                                       std::size_t server) const noexcept {
  if (!nodes_[server]->active) return {};
  const std::size_t row = server - shard.first;
  return shard.free_scale.quantize(shard.scan.table().available_of(row) +
                                   shard.scan.table().deflatable_of(row));
}

void ClusterManager::refresh_view(Shard& shard, std::size_t server) {
  ServerNode& node = *nodes_[server];
  const hv::Host& host = node.host;
  const res::ResourceVector available = host.available();
  const double overcommit = host.overcommit_ratio();
  const std::size_t row = server - shard.first;
  if (config_.mode == ReclamationMode::Deflation) {
    shard.scan.set_row(row, available, node.controller->reclaimable_headroom(),
                       overcommit);
  } else {
    shard.scan.set_row(row, available, res::ResourceVector{}, overcommit);
    shard.evict_scan.set_row(row, available, preemptable_allocation(host),
                             overcommit);
  }
  // Replace the server's old contribution to the shard's free total.
  const FixedPointRow units = free_row(shard, server);
  FixedPointRow& folded = free_rows_[server];
  for (std::size_t k = 0; k < units.size(); ++k) {
    shard.free_units[k] += units[k] - folded[k];
  }
  folded = units;
}

void ClusterManager::update_eligible(Shard& shard, std::size_t server) {
  const ServerNode& node = *nodes_[server];
  const bool eligible = node.active && node.accepting;
  const std::size_t row = server - shard.first;
  shard.scan.set_eligible(row, eligible);
  if (config_.mode == ReclamationMode::Preemption) {
    shard.evict_scan.set_eligible(row, eligible);
  }
}

double ClusterManager::min_launch_fraction(const hv::VmSpec& spec) const {
  const hv::Vm probe(spec);  // for the survival floor
  const res::ResourceVector floor = probe.allocation_floor();
  const res::ResourceVector full = spec.vector();
  double fraction = 0.0;
  for (const res::Resource r : res::all_resources) {
    if (full[r] <= 0.0) continue;
    core::VmShare share;
    share.id = spec.id;
    share.max_alloc = full[r];
    share.min_alloc = floor[r];
    share.priority = spec.priority;
    share.current = full[r];
    fraction = std::max(fraction, policy_->min_retained(share) / full[r]);
  }
  return std::min(1.0, fraction);
}

PlacementResult ClusterManager::admit(Shard& shard, const hv::VmSpec& spec,
                                      std::size_t server, double fraction) {
  ServerNode& node = *nodes_[server];
  const res::ResourceVector demand = spec.vector() * fraction;

  PlacementResult result;
  const res::ResourceVector need =
      (demand - node.host.available()).clamped_nonneg();
  result.needed_reclamation = !need.is_zero();
  if (result.needed_reclamation) {
    ++stats_.reclamation_attempts;
    const core::ReclaimOutcome outcome = node.controller->make_room_for(demand);
    if (!outcome.success) {
      ++stats_.reclamation_failures;
      ++stats_.rejections;
      mark_view_dirty(shard, server);
      result.status = PlacementResult::Status::Rejected;
      return result;
    }
  }

  hv::Vm& vm = node.host.add_vm(spec);
  if (fraction < 1.0) {
    node.controller->apply_allocation(vm, demand);
    ++stats_.deflated_launches;
    result.status = PlacementResult::Status::PlacedDeflated;
  } else {
    result.status = PlacementResult::Status::Placed;
  }
  result.host_id = server;
  result.launch_fraction = fraction;
  // place_vm refused a resident id, so this maps a new one.
  vm_locations_.insert(spec.id, static_cast<std::uint32_t>(server));
  ++stats_.placements;
  mark_view_dirty(shard, server);
  return result;
}

std::vector<std::size_t> ClusterManager::pool_servers(std::size_t pool) const {
  std::vector<std::size_t> servers;
  for (const Shard& shard : shards_) {
    const ServerRange range = shard.partitions.pool(pool);
    for (std::size_t row = range.first; row < range.last; ++row) {
      servers.push_back(shard.first + row);
    }
  }
  return servers;
}

PlacementResult ClusterManager::place_with_preemption(Shard& shard,
                                                      const hv::VmSpec& spec,
                                                      ServerRange pool) {
  const res::ResourceVector demand = spec.vector();
  PlacementResult result;

  // Feasibility with preemption: free capacity plus everything the
  // deflatable (low-priority) VMs currently hold. Only on-demand VMs may
  // evict others, so they pick from the eviction table; deflatable VMs
  // pick from the placement table, whose deflatable column is zero in
  // this mode.
  const HostSelector& selector = spec.deflatable ? shard.scan : shard.evict_scan;
  const auto best = selector.pick(demand, pool.first, pool.last,
                                  ScanFeasibility::WithDeflation,
                                  /*under_pressure=*/false);
  if (!best) {
    ++stats_.rejections;
    result.status = PlacementResult::Status::Rejected;
    return result;
  }
  const std::size_t server = shard.first + *best;
  ServerNode& node = *nodes_[server];

  // Preempt lowest-priority deflatable VMs until the demand fits (§7.4.1's
  // "cloud operators preempt low-priority VMs under resource pressure").
  if (!demand.all_leq(node.host.available(), 1e-9)) {
    ++stats_.reclamation_attempts;
    std::vector<hv::Vm*> victims;
    for (hv::Vm* vm : node.host.vms()) {
      if (vm->spec().deflatable) victims.push_back(vm);
    }
    std::sort(victims.begin(), victims.end(), [](const hv::Vm* a, const hv::Vm* b) {
      if (a->spec().priority != b->spec().priority) {
        return a->spec().priority < b->spec().priority;
      }
      return a->spec().id < b->spec().id;
    });
    for (hv::Vm* victim : victims) {
      if (demand.all_leq(node.host.available(), 1e-9)) break;
      const hv::VmSpec victim_spec = victim->spec();
      node.host.remove_vm(victim_spec.id);
      vm_locations_.erase(victim_spec.id);
      ++stats_.preemptions;
      for (const auto& callback : preemption_callbacks_) {
        callback(victim_spec, server);
      }
    }
    mark_view_dirty(shard, server);
  }
  return admit(shard, spec, server, 1.0);
}

PlacementResult ClusterManager::place_vm(const hv::VmSpec& spec) {
  // An id already resident is refused before any reclamation: placing it
  // again would orphan the first copy's allocation (or throw from
  // Host::add_vm on the same server).
  if (vm_locations_.find(spec.id) != util::IdIndex::kNone) {
    ++stats_.rejections;
    return PlacementResult{};
  }
  return routed() ? place_routed(spec) : place_in_shard(shards_.front(), spec);
}

PlacementResult ClusterManager::place_in_shard(Shard& shard,
                                               const hv::VmSpec& spec) {
  DEFLATE_PROFILE_SCOPE("cluster.place");
  // Views are maintained lazily; bring the shard's dirty ones up to date
  // so every feasibility decision below sees exact state.
  flush_shard(shard);

  // Both modes pick from the partition pool's id range of the SoA tables
  // (ineligible servers are masked by the eligibility column), so there
  // is no per-placement candidate list to build.
  const std::size_t pool_index =
      config_.partitioned
          ? pool_for_priority(spec.deflatable, spec.priority,
                              shard.partitions.pool_count())
          : 0;
  const ServerRange pool = shard.partitions.pool(pool_index);
  if (config_.mode == ReclamationMode::Preemption) {
    return place_with_preemption(shard, spec, pool);
  }

  const res::ResourceVector full_demand = spec.vector();
  auto try_fraction = [&](double fraction) -> std::optional<std::size_t> {
    const res::ResourceVector demand = full_demand * fraction;
    // Deflation is a *pressure* response (§5): while surplus capacity
    // exists somewhere, place without deflating anyone. Only when no
    // server fits the demand in free capacity does the reclamation path
    // rank servers by their deflatable headroom.
    auto row = shard.scan.pick(demand, pool.first, pool.last,
                               ScanFeasibility::FreeCapacity,
                               /*under_pressure=*/false);
    if (!row) {
      row = shard.scan.pick(demand, pool.first, pool.last,
                            ScanFeasibility::WithDeflation,
                            /*under_pressure=*/true);
    }
    if (!row) return std::nullopt;
    return shard.first + *row;
  };

  if (const auto server = try_fraction(1.0)) {
    return admit(shard, spec, *server, 1.0);
  }

  // No server can host the full size. Deflatable VMs may start deflated
  // (§5.1.1); scan downwards to the policy's minimum retained fraction.
  if (spec.deflatable) {
    ++stats_.reclamation_attempts;  // full-size reclamation was infeasible
    const double min_fraction = min_launch_fraction(spec);
    for (double fraction = 1.0 - kDeflatedLaunchStep;
         fraction >= min_fraction - 1e-9; fraction -= kDeflatedLaunchStep) {
      const double f = std::max(fraction, min_fraction);
      if (const auto server = try_fraction(f)) {
        return admit(shard, spec, *server, f);
      }
    }
    ++stats_.reclamation_failures;
  } else {
    ++stats_.reclamation_attempts;
    ++stats_.reclamation_failures;
  }
  ++stats_.rejections;
  PlacementResult result;
  result.needed_reclamation = true;
  result.status = PlacementResult::Status::Rejected;
  return result;
}

// --- routing ----------------------------------------------------------------

void ClusterManager::mark_shard_dirty(std::size_t s) {
  if (shards_[s].dirty) return;
  shards_[s].dirty = true;
  dirty_shards_.push_back(s);
}

void ClusterManager::refresh_routing(Shard& shard) {
  flush_shard(shard);
  shard.free = shard.free_scale.to_vector(shard.free_units);
}

double ClusterManager::shard_score(const Shard& shard,
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

std::vector<std::size_t> ClusterManager::route_picks(
    const res::ResourceVector& demand) {
  /// Zero-copy view of the cached aggregates for one placement.
  class Scores final : public ShardScores {
   public:
    Scores(const std::vector<Shard>& shards,
           const res::ResourceVector& demand) noexcept
        : shards_(shards), demand_(demand) {}
    [[nodiscard]] std::size_t count() const noexcept override {
      return shards_.size();
    }
    [[nodiscard]] double score(std::size_t s) const override {
      return shard_score(shards_[s], demand_);
    }

   private:
    const std::vector<Shard>& shards_;
    const res::ResourceVector& demand_;
  };
  std::vector<std::size_t> picks;
  selector_->route(Scores(shards_, demand), routing_rng_, picks);
  return picks;
}

std::vector<std::size_t> ClusterManager::route_tail(
    const res::ResourceVector& demand,
    const std::vector<std::size_t>& tried) const {
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

PlacementResult ClusterManager::place_routed(const hv::VmSpec& spec) {
  DEFLATE_PROFILE_SCOPE("sharded.place");
  const res::ResourceVector demand = spec.vector();
  // A failed attempt is routing noise: it rolls back its own rejection
  // and reclamation counts, except that the first one stands in for the
  // flat manager's single failed scan when every shard rejects.
  using Counters = std::array<std::uint64_t, 3>;
  const auto counters = [this] {
    return Counters{stats_.rejections, stats_.reclamation_attempts,
                    stats_.reclamation_failures};
  };
  const auto set_counters = [this](const Counters& c) {
    stats_.rejections = c[0];
    stats_.reclamation_attempts = c[1];
    stats_.reclamation_failures = c[2];
  };
  std::optional<Counters> first_failure;

  PlacementResult result;
  const auto try_shard = [&](std::size_t s) {
    Shard& shard = shards_[s];
    const Counters before = counters();
    result = place_in_shard(shard, spec);
    // Even a failed attempt can deflate bystanders before rejecting; keep
    // the cached aggregate eligible for the next flush.
    mark_shard_dirty(s);
    if (!result.ok()) {
      if (!first_failure) first_failure = counters();
      set_counters(before);
      return false;
    }
    // Cheap estimate; the next flush recomputes exactly.
    shard.free =
        (shard.free - demand * result.launch_fraction).clamped_nonneg();
    return true;
  };

  // Common case: a policy pick with cached headroom takes the VM and the
  // score-sorted fallback tail is never materialized.
  const std::vector<std::size_t> picks = route_picks(demand);
  for (const std::size_t s : picks) {
    if (try_shard(s)) return result;
  }
  for (const std::size_t s : route_tail(demand, picks)) {
    if (try_shard(s)) return result;
  }
  if (first_failure) set_counters(*first_failure);
  result = PlacementResult{};
  result.needed_reclamation = true;
  result.status = PlacementResult::Status::Rejected;
  return result;
}

// --- server churn -----------------------------------------------------------

RevocationOutcome ClusterManager::revoke_server(std::size_t server) {
  DEFLATE_PROFILE_SCOPE("cluster.revoke");
  RevocationOutcome outcome;
  ServerNode& node = *nodes_.at(server);
  if (!node.active) return outcome;  // already revoked: idempotent
  Shard& shard = shard_for(server);
  node.active = false;
  node.accepting = true;  // clear any drain; the server is gone either way
  update_eligible(shard, server);
  ++stats_.revocations;

  // Strip the residents, most valuable first, then re-place them through
  // place_vm, which on a sharded fleet shops every shard.
  std::vector<hv::VmSpec> residents;
  for (const hv::Vm* vm : node.host.vms()) {
    residents.push_back(vm->spec());
  }
  std::sort(residents.begin(), residents.end(), displacement_before);
  for (const hv::VmSpec& spec : residents) {
    node.host.remove_vm(spec.id);
    vm_locations_.erase(spec.id);
  }
  mark_view_dirty(shard, server);
  // Whole-server capacity vanished; route the displaced VMs (and everyone
  // after them) on a fresh aggregate instead of chasing it.
  if (routed()) refresh_routing(shard);
  outcome.vms_displaced = residents.size();

  for (const hv::VmSpec& spec : residents) {
    if (config_.mode == ReclamationMode::Deflation) {
      // Re-place at full spec; the placement path deflates the VM and/or
      // its new neighbours as needed (possibly a deflated launch).
      const PlacementResult placed = place_vm(spec);
      if (placed.ok()) {
        ++outcome.vms_migrated;
        ++stats_.revocation_migrations;
        for (const auto& callback : migration_callbacks_) {
          callback(spec, server, placed.host_id, placed.launch_fraction);
        }
        continue;
      }
    }
    ++outcome.vms_killed;
    ++stats_.revocation_kills;
    // A revocation kill is a preemption wherever it happens: the stat
    // stays in lockstep with the preemption callbacks in both modes.
    ++stats_.preemptions;
    for (const auto& callback : preemption_callbacks_) callback(spec, server);
  }
  for (const auto& callback : revocation_callbacks_) callback(server, outcome);
  return outcome;
}

void ClusterManager::restore_server(std::size_t server) {
  ServerNode& node = *nodes_.at(server);
  Shard& shard = shard_for(server);
  node.accepting = true;
  if (node.active) {
    // A drain whose revocation never materialized (e.g. a withdrawn
    // warning): restoring a still-active server just reopens it for
    // placements, without counting a restoration.
    update_eligible(shard, server);
  } else {
    node.active = true;
    update_eligible(shard, server);
    ++stats_.restorations;
    mark_view_dirty(shard, server);
  }
  if (routed()) refresh_routing(shard);
}

void ClusterManager::drain_server(std::size_t server) {
  nodes_.at(server)->accepting = false;
  // A sharded fleet's cached aggregate still counts the draining server's
  // free capacity; that only skews routing order, because the shard's
  // exact scan excludes it.
  update_eligible(shard_for(server), server);
}

std::size_t ClusterManager::active_server_count() const {
  std::size_t count = 0;
  for (const auto& node : nodes_) {
    if (node->active) ++count;
  }
  return count;
}

bool ClusterManager::remove_vm(std::uint64_t vm_id) {
  const std::uint32_t server = vm_locations_.find(vm_id);
  if (server == util::IdIndex::kNone) return false;
  vm_locations_.erase(vm_id);
  const std::size_t s = shard_of_server(server);
  Shard& shard = shards_[s];
  ServerNode& node = *nodes_[server];
  if (routed()) mark_shard_dirty(s);
  // The removed VM is freed at the end of this statement, before the
  // reinflation below allocates: held to the end of the call, it raised
  // the `replay` benchmark's peak RSS by 0.8 MiB.
  if (const std::unique_ptr<hv::Vm> removed = node.host.remove_vm(vm_id);
      removed != nullptr && routed()) {
    // Fold the freed allocation into the routing estimate; the next flush
    // recomputes exactly.
    shard.free += removed->effective_allocation();
  }
  if (config_.mode == ReclamationMode::Deflation &&
      config_.reinflate_on_departure) {
    node.controller->redistribute_free();
  }
  mark_view_dirty(shard, server);
  return true;
}

hv::Vm* ClusterManager::find_vm(std::uint64_t vm_id) {
  const std::uint32_t server = vm_locations_.find(vm_id);
  if (server == util::IdIndex::kNone) return nullptr;
  return nodes_[server]->host.find_vm(vm_id);
}

std::optional<std::size_t> ClusterManager::server_of(std::uint64_t vm_id) const {
  const std::uint32_t server = vm_locations_.find(vm_id);
  if (server == util::IdIndex::kNone) return std::nullopt;
  return server;
}

res::ResourceVector ClusterManager::total_capacity() const {
  return config_.server_capacity * static_cast<double>(nodes_.size());
}

res::ResourceVector ClusterManager::total_allocated() const {
  res::ResourceVector total;
  for (const auto& node : nodes_) total += node->host.allocated();
  return total;
}

res::ResourceVector ClusterManager::total_committed() const {
  res::ResourceVector total;
  for (const auto& node : nodes_) total += node->host.committed();
  return total;
}

void ClusterManager::subscribe_deflation(const DeflationCallback& callback) {
  for (auto& node : nodes_) node->controller->subscribe(callback);
}

}  // namespace deflate::cluster
