#include "cluster/migration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deflate::cluster {

namespace {

/// Pre-copy rounds before the model forces stop-and-copy.
constexpr int kMaxPrecopyRounds = 16;
/// Stop-and-copy as soon as the remaining dirty set is this small (MiB).
constexpr double kStopCopyThresholdMib = 64.0;
/// Footprint fraction streamed when the engine deflates a VM before
/// transfer (floored by the VM's own `min_fraction`).
constexpr double kDeflatedTransferFraction = 0.25;

}  // namespace

void MigrationSurface::register_builtins(
    policy::PolicyRegistry<MigrationSurface>& registry) {
  registry.add("migrate",
               "full-footprint pre-copy; a missed deadline kills the VM",
               [] {
                 return MigrationStrategy{.deflate_before_transfer = false,
                                          .checkpoint_fallback = false};
               });
  registry.add("checkpoint",
               "full-footprint pre-copy; a missed deadline checkpoint-"
               "relaunches the VM",
               [] {
                 return MigrationStrategy{.deflate_before_transfer = false,
                                          .checkpoint_fallback = true};
               });
  registry.add("deflate",
               "stream the deflated footprint; a missed deadline kills the VM",
               [] {
                 return MigrationStrategy{.deflate_before_transfer = true,
                                          .checkpoint_fallback = false};
               });
  registry.add("hybrid",
               "deflated transfer + checkpoint-relaunch fallback (the paper's "
               "deflation + checkpointing hybrid)",
               [] {
                 return MigrationStrategy{.deflate_before_transfer = true,
                                          .checkpoint_fallback = true};
               });
}

MigrationStrategy make_migration_strategy(const std::string& name) {
  const auto* entry = MigrationRegistry::instance().find(name);
  if (entry == nullptr) {
    throw std::invalid_argument(
        "unknown migration strategy '" + name + "' (expected " +
        policy::joined_policy_names<MigrationSurface>() + ")");
  }
  return entry->make();
}

MigrationEstimate MigrationModel::precopy(double memory_mib,
                                          int concurrent_streams) const {
  MigrationEstimate estimate;
  if (instant()) return estimate;
  const double streams =
      config_.share_bandwidth ? std::max(1, concurrent_streams) : 1;
  const double bandwidth = config_.bandwidth_mib_per_sec / streams;
  const double dirty = std::max(0.0, config_.dirty_mib_per_sec);
  double remaining = std::max(0.0, memory_mib);

  if (dirty >= bandwidth) {
    // Pre-copy cannot drain: the guest redirties memory as fast as the
    // link streams it. One bulk round, then stop-and-copy of a fully
    // redirtied footprint.
    estimate.converged = false;
    const double bulk_seconds = remaining / bandwidth;
    estimate.downtime = sim::SimTime::from_seconds(bulk_seconds);
    estimate.duration = sim::SimTime::from_seconds(2.0 * bulk_seconds);
    return estimate;
  }

  double total_seconds = 0.0;
  int round = 0;
  while (remaining > kStopCopyThresholdMib && round < kMaxPrecopyRounds) {
    const double round_seconds = remaining / bandwidth;
    total_seconds += round_seconds;
    remaining = round_seconds * dirty;  // redirtied while this round streamed
    ++round;
  }
  const double stop_copy_seconds = remaining / bandwidth;
  estimate.downtime = sim::SimTime::from_seconds(stop_copy_seconds);
  estimate.duration =
      sim::SimTime::from_seconds(total_seconds + stop_copy_seconds);
  return estimate;
}

MigrationEstimate MigrationModel::checkpoint(double memory_mib,
                                             int concurrent_streams) const {
  MigrationEstimate estimate;
  if (instant()) return estimate;
  const double streams =
      config_.share_bandwidth ? std::max(1, concurrent_streams) : 1;
  const double seconds =
      std::max(0.0, memory_mib) * streams / config_.bandwidth_mib_per_sec;
  estimate.duration = sim::SimTime::from_seconds(seconds);
  estimate.downtime = estimate.duration;
  return estimate;
}

int MigrationEngine::contention_streams(std::size_t residents) const noexcept {
  if (!config_.model.share_bandwidth) return 1;
  return static_cast<int>(std::max<std::size_t>(1, residents));
}

double MigrationEngine::transfer_mib(const hv::VmSpec& spec) const {
  if (!strategy_.deflate_before_transfer) return spec.memory_mib;
  const double fraction = std::clamp(
      std::max(spec.min_fraction, kDeflatedTransferFraction), 0.0, 1.0);
  return spec.memory_mib * fraction;
}

WarningResult MigrationEngine::begin_warning(std::size_t server,
                                             sim::SimTime now,
                                             sim::SimTime deadline) {
  WarningResult result;
  if (model_.instant() || !manager_.server_active(server)) return result;
  manager_.drain_server(server);

  std::vector<hv::VmSpec> residents;
  for (const hv::Vm* vm : manager_.host(server).vms()) {
    residents.push_back(vm->spec());
  }
  std::sort(residents.begin(), residents.end(), displacement_before);

  const int streams = contention_streams(residents.size());
  for (const hv::VmSpec& spec : residents) {
    const MigrationEstimate estimate =
        model_.precopy(transfer_mib(spec), streams);
    if (!estimate.converged || now + estimate.duration > deadline) {
      // Streaming would outlive the server; it keeps running until the
      // deadline decides between checkpoint-relaunch and kill.
      continue;
    }
    manager_.remove_vm(spec.id);
    const PlacementResult placed = manager_.place_vm(spec);
    if (!placed.ok()) {
      // Fits the warning but no destination today: checkpoint it and let
      // the deadline retry (capacity may free up in between).
      result.suspended.push_back(spec);
      continue;
    }
    ++stats_.live_migrations;
    MigrationRecord record;
    record.spec = spec;
    record.from = server;
    record.to = placed.host_id;
    record.launch_fraction = placed.launch_fraction;
    record.start = now;
    record.cutover_end = now + estimate.duration;
    record.cutover_begin = record.cutover_end - estimate.downtime;
    record.live = true;
    result.started.push_back(record);
  }
  return result;
}

RevocationFinish MigrationEngine::finish_revocation(
    std::size_t server, sim::SimTime now,
    std::span<const hv::VmSpec> suspended) {
  RevocationFinish result;
  if (model_.instant()) {  // defensive: callers gate on timed()
    manager_.revoke_server(server);
    return result;
  }
  if (!manager_.server_active(server)) return result;

  // Zero-warning revocations reach here without a begin_warning; make sure
  // the fallback placements below cannot land on the doomed server.
  manager_.drain_server(server);

  struct Candidate {
    hv::VmSpec spec;
    bool was_suspended = false;
  };
  std::vector<Candidate> candidates;
  for (const hv::Vm* vm : manager_.host(server).vms()) {
    candidates.push_back({vm->spec(), false});
  }
  for (const hv::VmSpec& spec : suspended) candidates.push_back({spec, true});
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return displacement_before(a.spec, b.spec);
            });

  const int streams = contention_streams(candidates.size());
  for (const Candidate& candidate : candidates) {
    const hv::VmSpec& spec = candidate.spec;
    if (!candidate.was_suspended) manager_.remove_vm(spec.id);
    PlacementResult placed;
    if (strategy_.checkpoint_fallback) placed = manager_.place_vm(spec);
    if (strategy_.checkpoint_fallback && placed.ok()) {
      ++stats_.checkpoint_restores;
      MigrationRecord record;
      record.spec = spec;
      record.from = server;
      record.to = placed.host_id;
      record.launch_fraction = placed.launch_fraction;
      record.start = now;
      record.cutover_begin = now;
      record.cutover_end =
          now + model_.checkpoint(transfer_mib(spec), streams).duration;
      record.live = false;
      result.restored.push_back(record);
    } else {
      ++stats_.checkpoint_kills;
      result.killed.push_back(spec);
    }
  }

  // The server is empty now; this flips it inactive, counts the
  // revocation and fires the manager's revocation callbacks.
  manager_.revoke_server(server);
  return result;
}

}  // namespace deflate::cluster
