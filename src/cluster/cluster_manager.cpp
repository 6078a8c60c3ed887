#include "cluster/cluster_manager.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "mechanisms/mechanism.hpp"
#include "util/logging.hpp"
#include "util/profiler.hpp"

namespace deflate::cluster {

namespace {

/// Rejects configs the manager cannot serve before any member is built: a
/// zero-server fleet would leave every partition pool naming a server
/// that does not exist.
ClusterConfig validated(ClusterConfig config) {
  if (config.server_count == 0) {
    throw std::invalid_argument("ClusterManager: server_count must be >= 1");
  }
  return config;
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

ClusterManager::ServerNode::ServerNode(std::uint64_t id,
                                       const ClusterConfig& config)
    : hypervisor(id, config.server_capacity) {}

ClusterManager::ClusterManager(ClusterConfig config)
    : config_(validated(std::move(config))),
      policy_(core::make_policy(config_.policy)),
      scorer_(make_placement_scorer(placement_policy_of(config_))),
      partitions_(config_.partitioned
                      ? ClusterPartitions(config_.server_count, config_.pool_weights)
                      : ClusterPartitions::single_pool(config_.server_count)),
      scan_(scorer_),
      evict_scan_(scorer_) {
  std::shared_ptr<mech::DeflationMechanism> mechanism =
      mech::make_mechanism(config_.mechanism);
  nodes_.reserve(config_.server_count);
  view_dirty_.assign(config_.server_count, 0);
  dirty_queue_.reserve(config_.server_count);
  scan_.resize(config_.server_count, config_.server_capacity);
  if (config_.mode == ReclamationMode::Preemption) {
    evict_scan_.resize(config_.server_count, config_.server_capacity);
  }
  free_scale_ = FixedPointScale(config_.server_capacity * kFreeRowBound,
                                config_.server_count);
  free_rows_.assign(config_.server_count, FixedPointRow{});
  for (std::size_t i = 0; i < config_.server_count; ++i) {
    auto node = std::make_unique<ServerNode>(i, config_);
    node->controller = std::make_unique<core::LocalDeflationController>(
        node->hypervisor, policy_, mechanism);
    nodes_.push_back(std::move(node));
    refresh_view(i);
  }
}

void ClusterManager::mark_view_dirty(std::size_t server) {
  if (view_dirty_[server]) return;
  view_dirty_[server] = 1;
  dirty_queue_.push_back(server);
}

void ClusterManager::flush_views() {
  DEFLATE_PROFILE_SCOPE("cluster.flush_views");
  for (const std::size_t server : dirty_queue_) {
    view_dirty_[server] = 0;
    refresh_view(server);
  }
  dirty_queue_.clear();
}

res::ResourceVector ClusterManager::aggregate_free() {
  return free_scale_.to_vector(aggregate_free_units());
}

FixedPointRow ClusterManager::aggregate_free_units() {
  flush_views();
  return free_units_;
}

FixedPointRow ClusterManager::rescan_free_units() const {
  FixedPointRow total{};
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const FixedPointRow row = free_row(i);
    for (std::size_t k = 0; k < total.size(); ++k) total[k] += row[k];
  }
  return total;
}

FixedPointRow ClusterManager::free_row(std::size_t server) const noexcept {
  if (!nodes_[server]->active) return {};
  return free_scale_.quantize(scan_.table().available_of(server) +
                              scan_.table().deflatable_of(server));
}

void ClusterManager::refresh_view(std::size_t server) {
  ServerNode& node = *nodes_[server];
  const hv::Host& host = node.hypervisor.host();
  const res::ResourceVector available = host.available();
  const double overcommit = host.overcommit_ratio();
  if (config_.mode == ReclamationMode::Deflation) {
    scan_.set_row(server, available, node.controller->reclaimable_headroom(),
                  overcommit);
  } else {
    scan_.set_row(server, available, res::ResourceVector{}, overcommit);
    evict_scan_.set_row(server, available, preemptable_allocation(host),
                        overcommit);
  }
  // Replace the server's old contribution to the running free total.
  const FixedPointRow row = free_row(server);
  FixedPointRow& folded = free_rows_[server];
  for (std::size_t k = 0; k < row.size(); ++k) {
    free_units_[k] += row[k] - folded[k];
  }
  folded = row;
}

void ClusterManager::update_eligible(std::size_t server) {
  const ServerNode& node = *nodes_[server];
  const bool eligible = node.active && node.accepting;
  scan_.set_eligible(server, eligible);
  if (config_.mode == ReclamationMode::Preemption) {
    evict_scan_.set_eligible(server, eligible);
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

PlacementResult ClusterManager::admit(const hv::VmSpec& spec, std::size_t server,
                                      double fraction) {
  ServerNode& node = *nodes_[server];
  const res::ResourceVector demand = spec.vector() * fraction;

  PlacementResult result;
  const res::ResourceVector need =
      (demand - node.hypervisor.host().available()).clamped_nonneg();
  result.needed_reclamation = !need.is_zero();
  if (result.needed_reclamation) {
    ++stats_.reclamation_attempts;
    const core::ReclaimOutcome outcome = node.controller->make_room_for(demand);
    if (!outcome.success) {
      ++stats_.reclamation_failures;
      mark_view_dirty(server);
      result.status = PlacementResult::Status::Rejected;
      return result;
    }
  }

  hv::Vm& vm = node.hypervisor.create_vm(spec);
  if (fraction < 1.0) {
    node.controller->apply_allocation(vm, demand);
    ++stats_.deflated_launches;
    result.status = PlacementResult::Status::PlacedDeflated;
  } else {
    result.status = PlacementResult::Status::Placed;
  }
  result.host_id = server;
  result.launch_fraction = fraction;
  vm_locations_[spec.id] = server;
  ++stats_.placements;
  mark_view_dirty(server);
  return result;
}

std::vector<std::size_t> ClusterManager::pool_servers(std::size_t pool) const {
  const ServerRange range = partitions_.pool(pool);
  std::vector<std::size_t> servers(range.size());
  std::iota(servers.begin(), servers.end(), range.first);
  return servers;
}

PlacementResult ClusterManager::place_with_preemption(const hv::VmSpec& spec,
                                                      ServerRange pool) {
  const res::ResourceVector demand = spec.vector();
  PlacementResult result;

  // Feasibility with preemption: free capacity plus everything the
  // deflatable (low-priority) VMs currently hold. Only on-demand VMs may
  // evict others, so they pick from the eviction table; deflatable VMs
  // pick from the placement table, whose deflatable column is zero in
  // this mode.
  const HostSelector& selector = spec.deflatable ? scan_ : evict_scan_;
  const auto best = selector.pick(demand, pool.first, pool.last,
                                  ScanFeasibility::WithDeflation,
                                  /*under_pressure=*/false);
  if (!best) {
    ++stats_.rejections;
    result.status = PlacementResult::Status::Rejected;
    return result;
  }
  const std::size_t server = *best;
  ServerNode& node = *nodes_[server];

  // Preempt lowest-priority deflatable VMs until the demand fits (§7.4.1's
  // "cloud operators preempt low-priority VMs under resource pressure").
  if (!demand.all_leq(node.hypervisor.host().available(), 1e-9)) {
    ++stats_.reclamation_attempts;
    std::vector<hv::Vm*> victims;
    for (hv::Vm* vm : node.hypervisor.host().vms()) {
      if (vm->spec().deflatable) victims.push_back(vm);
    }
    std::sort(victims.begin(), victims.end(), [](const hv::Vm* a, const hv::Vm* b) {
      if (a->spec().priority != b->spec().priority) {
        return a->spec().priority < b->spec().priority;
      }
      return a->spec().id < b->spec().id;
    });
    for (hv::Vm* victim : victims) {
      if (demand.all_leq(node.hypervisor.host().available(), 1e-9)) break;
      const hv::VmSpec victim_spec = victim->spec();
      node.hypervisor.destroy_vm(victim_spec.id);
      vm_locations_.erase(victim_spec.id);
      ++stats_.preemptions;
      for (const auto& callback : preemption_callbacks_) {
        callback(victim_spec, server);
      }
    }
    mark_view_dirty(server);
  }
  return admit(spec, server, 1.0);
}

PlacementResult ClusterManager::place_vm(const hv::VmSpec& spec) {
  DEFLATE_PROFILE_SCOPE("cluster.place");
  // Views are maintained lazily; bring the dirty ones up to date so every
  // feasibility decision below sees exact state (same decisions as the old
  // eager per-mutation rescan, minus the redundant rescans in between).
  flush_views();

  // Both modes pick from the partition pool's id range of the SoA tables
  // (ineligible servers are masked by the eligibility column), so there
  // is no per-placement candidate list to build.
  const std::size_t pool_index =
      config_.partitioned ? pool_for_priority(spec.deflatable, spec.priority,
                                              partitions_.pool_count())
                          : 0;
  const ServerRange pool = partitions_.pool(pool_index);
  if (config_.mode == ReclamationMode::Preemption) {
    return place_with_preemption(spec, pool);
  }

  const res::ResourceVector full_demand = spec.vector();
  auto try_fraction = [&](double fraction) -> std::optional<std::size_t> {
    const res::ResourceVector demand = full_demand * fraction;
    // Deflation is a *pressure* response (§5): while surplus capacity
    // exists somewhere, place without deflating anyone. Only when no
    // server fits the demand in free capacity does the reclamation path
    // rank servers by their deflatable headroom.
    if (const auto server = scan_.pick(demand, pool.first, pool.last,
                                       ScanFeasibility::FreeCapacity,
                                       /*under_pressure=*/false)) {
      return server;
    }
    return scan_.pick(demand, pool.first, pool.last,
                      ScanFeasibility::WithDeflation, /*under_pressure=*/true);
  };

  if (const auto server = try_fraction(1.0)) {
    return admit(spec, *server, 1.0);
  }

  // No server can host the full size. Deflatable VMs may start deflated
  // (§5.1.1); scan downwards to the policy's minimum retained fraction.
  if (spec.deflatable) {
    ++stats_.reclamation_attempts;  // full-size reclamation was infeasible
    const double min_fraction = min_launch_fraction(spec);
    for (double fraction = 1.0 - config_.deflated_launch_step;
         fraction >= min_fraction - 1e-9;
         fraction -= config_.deflated_launch_step) {
      const double f = std::max(fraction, min_fraction);
      if (const auto server = try_fraction(f)) {
        return admit(spec, *server, f);
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

std::optional<std::vector<hv::VmSpec>> ClusterManager::take_server_offline(
    std::size_t server) {
  ServerNode& node = *nodes_.at(server);
  if (!node.active) return std::nullopt;
  node.active = false;
  node.accepting = true;  // clear any drain; the server is gone either way
  update_eligible(server);
  ++stats_.revocations;

  std::vector<hv::VmSpec> residents;
  for (const hv::Vm* vm : node.hypervisor.host().vms()) {
    residents.push_back(vm->spec());
  }
  std::sort(residents.begin(), residents.end(), displacement_before);
  for (const hv::VmSpec& spec : residents) {
    node.hypervisor.destroy_vm(spec.id);
    vm_locations_.erase(spec.id);
  }
  mark_view_dirty(server);
  return residents;
}

RevocationOutcome ClusterManager::revoke_server(std::size_t server) {
  DEFLATE_PROFILE_SCOPE("cluster.revoke");
  RevocationOutcome outcome;
  const std::optional<std::vector<hv::VmSpec>> residents =
      take_server_offline(server);
  if (!residents) return outcome;  // already revoked: idempotent
  outcome.vms_displaced = residents->size();

  for (const hv::VmSpec& spec : *residents) {
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
  if (node.active) {
    // A drain whose revocation never materialized (e.g. a withdrawn
    // warning): restoring a still-active server just reopens it for
    // placements, without counting a restoration.
    node.accepting = true;
    update_eligible(server);
    return;
  }
  node.active = true;
  node.accepting = true;
  update_eligible(server);
  ++stats_.restorations;
  mark_view_dirty(server);
}

void ClusterManager::drain_server(std::size_t server) {
  nodes_.at(server)->accepting = false;
  update_eligible(server);
}

std::size_t ClusterManager::active_server_count() const {
  std::size_t count = 0;
  for (const auto& node : nodes_) {
    if (node->active) ++count;
  }
  return count;
}

std::optional<res::ResourceVector> ClusterManager::depart_vm(
    std::uint64_t vm_id) {
  const auto it = vm_locations_.find(vm_id);
  if (it == vm_locations_.end()) return std::nullopt;
  const std::size_t server = it->second;
  vm_locations_.erase(it);
  ServerNode& node = *nodes_[server];
  const hv::Vm* vm = node.hypervisor.host().find_vm(vm_id);
  const res::ResourceVector freed =
      vm != nullptr ? vm->effective_allocation() : res::ResourceVector{};
  node.hypervisor.destroy_vm(vm_id);
  if (config_.mode == ReclamationMode::Deflation &&
      config_.reinflate_on_departure) {
    node.controller->redistribute_free();
  }
  mark_view_dirty(server);
  return freed;
}

bool ClusterManager::remove_vm(std::uint64_t vm_id) {
  return depart_vm(vm_id).has_value();
}

hv::Vm* ClusterManager::find_vm(std::uint64_t vm_id) {
  const auto it = vm_locations_.find(vm_id);
  if (it == vm_locations_.end()) return nullptr;
  return nodes_[it->second]->hypervisor.host().find_vm(vm_id);
}

std::optional<std::size_t> ClusterManager::server_of(std::uint64_t vm_id) const {
  const auto it = vm_locations_.find(vm_id);
  if (it == vm_locations_.end()) return std::nullopt;
  return it->second;
}

res::ResourceVector ClusterManager::total_capacity() const {
  return config_.server_capacity * static_cast<double>(nodes_.size());
}

res::ResourceVector ClusterManager::total_allocated() const {
  res::ResourceVector total;
  for (const auto& node : nodes_) total += node->hypervisor.host().allocated();
  return total;
}

res::ResourceVector ClusterManager::total_committed() const {
  res::ResourceVector total;
  for (const auto& node : nodes_) total += node->hypervisor.host().committed();
  return total;
}

void ClusterManager::subscribe_deflation(const DeflationCallback& callback) {
  for (auto& node : nodes_) node->controller->subscribe(callback);
}

}  // namespace deflate::cluster
