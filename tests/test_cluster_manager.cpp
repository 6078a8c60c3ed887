#include "cluster/cluster_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/sharded_manager.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace res = deflate::res;

namespace {

hv::VmSpec make_spec(std::uint64_t id, int vcpus, double mem_mib,
                     bool deflatable, double priority = 0.5) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = vcpus;
  spec.memory_mib = mem_mib;
  spec.disk_bw_mbps = 0.0;
  spec.net_bw_mbps = 0.0;
  spec.deflatable = deflatable;
  spec.priority = priority;
  return spec;
}

cl::ClusterConfig small_cluster(std::size_t servers = 2,
                                cl::ReclamationMode mode =
                                    cl::ReclamationMode::Deflation) {
  cl::ClusterConfig config;
  config.server_count = servers;
  config.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  config.mode = mode;
  return config;
}

}  // namespace

TEST(ClusterManager, PlacesVmOnEmptyCluster) {
  cl::ClusterManager manager(small_cluster());
  const auto result = manager.place_vm(make_spec(1, 8, 16384.0, false));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.status, cl::PlacementResult::Status::Placed);
  EXPECT_FALSE(result.needed_reclamation);
  EXPECT_NE(manager.find_vm(1), nullptr);
}

TEST(ClusterManager, SpreadsLoadAcrossServers) {
  cl::ClusterManager manager(small_cluster(2));
  manager.place_vm(make_spec(1, 8, 16384.0, false));
  const auto second = manager.place_vm(make_spec(2, 8, 16384.0, false));
  // The fitness term prefers the emptier server.
  EXPECT_NE(manager.server_of(1).value(), second.host_id);
}

TEST(ClusterManager, DeflatesResidentsToFitOnDemand) {
  cl::ClusterManager manager(small_cluster(1));
  manager.place_vm(make_spec(1, 16, 32768.0, /*deflatable=*/true));
  const auto result = manager.place_vm(make_spec(2, 8, 16384.0, false));
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.needed_reclamation);
  EXPECT_EQ(manager.stats().reclamation_attempts, 1U);
  EXPECT_EQ(manager.stats().reclamation_failures, 0U);
  // The deflatable VM shrank to make room.
  EXPECT_GT(manager.find_vm(1)->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, RejectsWhenNothingDeflatable) {
  cl::ClusterManager manager(small_cluster(1));
  manager.place_vm(make_spec(1, 16, 32768.0, /*deflatable=*/false));
  const auto result = manager.place_vm(make_spec(2, 8, 16384.0, false));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(manager.stats().reclamation_failures, 1U);
  EXPECT_EQ(manager.stats().rejections, 1U);
}

TEST(ClusterManager, DeflatableVmLaunchesDeflatedUnderPressure) {
  cl::ClusterManager manager(small_cluster(1));
  manager.place_vm(make_spec(1, 12, 24576.0, /*deflatable=*/false));
  // 16-core deflatable VM cannot fit at full size (only 4 cores left).
  const auto result = manager.place_vm(make_spec(2, 16, 32768.0, true, 0.2));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.status, cl::PlacementResult::Status::PlacedDeflated);
  EXPECT_LT(result.launch_fraction, 1.0);
  EXPECT_EQ(manager.stats().deflated_launches, 1U);
  const hv::Vm* vm = manager.find_vm(2);
  ASSERT_NE(vm, nullptr);
  EXPECT_GT(vm->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, RemoveVmReinflatesSurvivors) {
  cl::ClusterManager manager(small_cluster(1));
  manager.place_vm(make_spec(1, 16, 32768.0, true));
  manager.place_vm(make_spec(2, 8, 16384.0, false));
  ASSERT_GT(manager.find_vm(1)->max_deflation_fraction(), 0.0);
  EXPECT_TRUE(manager.remove_vm(2));
  EXPECT_DOUBLE_EQ(manager.find_vm(1)->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, RemoveUnknownVmReturnsFalse) {
  cl::ClusterManager manager(small_cluster());
  EXPECT_FALSE(manager.remove_vm(404));
}

TEST(ClusterManager, ResidentIdOnAnotherServerIsRejected) {
  cl::ClusterManager manager(small_cluster(2));
  const auto first = manager.place_vm(make_spec(7, 8, 16384.0, false));
  ASSERT_TRUE(first.ok());
  // The other server is emptier, so only the resident-id check keeps a
  // second copy of vm 7 off it.
  const auto second = manager.place_vm(make_spec(7, 8, 16384.0, false));
  EXPECT_EQ(second.status, cl::PlacementResult::Status::Rejected);
  EXPECT_FALSE(second.needed_reclamation);
  EXPECT_EQ(manager.stats().rejections, 1U);
  EXPECT_EQ(manager.stats().placements, 1U);
  EXPECT_EQ(manager.server_of(7), first.host_id);
  EXPECT_DOUBLE_EQ(manager.total_committed().cpu(), 8.0);
  EXPECT_TRUE(manager.remove_vm(7));
  EXPECT_DOUBLE_EQ(manager.total_committed().cpu(), 0.0);
  EXPECT_FALSE(manager.remove_vm(7));
}

TEST(ClusterManager, ResidentIdOnItsOwnServerIsRejectedBeforeReclamation) {
  cl::ClusterManager manager(small_cluster(1));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 12, 24576.0, true)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(7, 4, 8192.0, false)).ok());
  // A second vm 7 would need vm 1 deflated; it is refused first, and vm 1
  // keeps its full size.
  const auto again = manager.place_vm(make_spec(7, 4, 8192.0, false));
  EXPECT_EQ(again.status, cl::PlacementResult::Status::Rejected);
  EXPECT_EQ(manager.stats().rejections, 1U);
  EXPECT_EQ(manager.stats().reclamation_attempts, 0U);
  EXPECT_DOUBLE_EQ(manager.find_vm(1)->max_deflation_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(manager.total_committed().cpu(), 16.0);
}

TEST(ClusterManager, ResidentIdIsRejectedOnAShardedFleet) {
  cl::ShardedClusterConfig config;
  config.cluster = small_cluster(8);
  config.shard_count = 4;
  cl::ClusterManager manager(config);
  ASSERT_EQ(manager.shard_count(), 4U);
  const auto first = manager.place_vm(make_spec(7, 8, 16384.0, false));
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(manager.place_vm(make_spec(7, 8, 16384.0, false)).ok());
  }
  EXPECT_EQ(manager.stats().rejections, 3U);
  EXPECT_EQ(manager.server_of(7), first.host_id);
  EXPECT_DOUBLE_EQ(manager.total_committed().cpu(), 8.0);
  EXPECT_TRUE(manager.remove_vm(7));
  EXPECT_FALSE(manager.remove_vm(7));
}

TEST(ClusterManager, TotalsTrackPlacements) {
  cl::ClusterManager manager(small_cluster(2));
  manager.place_vm(make_spec(1, 8, 16384.0, false));
  manager.place_vm(make_spec(2, 4, 8192.0, true));
  const auto committed = manager.total_committed();
  EXPECT_DOUBLE_EQ(committed.cpu(), 12.0);
  EXPECT_DOUBLE_EQ(manager.total_capacity().cpu(), 32.0);
  EXPECT_DOUBLE_EQ(manager.total_allocated().cpu(), 12.0);
}

TEST(ClusterManager, DeflationNotificationsSurface) {
  cl::ClusterManager manager(small_cluster(1));
  int events = 0;
  manager.subscribe_deflation([&](const hv::Vm&, const res::ResourceVector&,
                                  const res::ResourceVector&) { ++events; });
  manager.place_vm(make_spec(1, 16, 32768.0, true));
  manager.place_vm(make_spec(2, 8, 16384.0, false));
  EXPECT_GE(events, 1);
}

TEST(ClusterManager, PreemptionModeEvictsLowPriority) {
  cl::ClusterManager manager(
      small_cluster(1, cl::ReclamationMode::Preemption));
  manager.place_vm(make_spec(1, 8, 16384.0, true, /*priority=*/0.2));
  manager.place_vm(make_spec(2, 8, 16384.0, true, /*priority=*/0.8));
  std::vector<std::uint64_t> preempted;
  manager.subscribe_preemption([&](const hv::VmSpec& spec, std::uint64_t host) {
    EXPECT_EQ(host, 0U);  // single-server cluster
    preempted.push_back(spec.id);
  });

  const auto result = manager.place_vm(make_spec(3, 8, 16384.0, false));
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(preempted.size(), 1U);
  EXPECT_EQ(preempted[0], 1U);  // lowest priority evicted first
  EXPECT_EQ(manager.find_vm(1), nullptr);
  EXPECT_NE(manager.find_vm(2), nullptr);
  EXPECT_EQ(manager.stats().preemptions, 1U);
}

TEST(ClusterManager, PreemptionModeDeflatableNeverEvicts) {
  cl::ClusterManager manager(
      small_cluster(1, cl::ReclamationMode::Preemption));
  manager.place_vm(make_spec(1, 16, 32768.0, true, 0.2));
  // A deflatable VM must not preempt others; it is simply rejected.
  const auto result = manager.place_vm(make_spec(2, 8, 16384.0, true, 0.4));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(manager.stats().preemptions, 0U);
  EXPECT_NE(manager.find_vm(1), nullptr);
}

TEST(ClusterManager, PartitionedPlacementSeparatesPriorities) {
  cl::ClusterConfig config = small_cluster(5);
  config.partitioned = true;
  config.pool_weights = {0.2, 0.2, 0.2, 0.2, 0.2};
  cl::ClusterManager manager(config);

  const auto od = manager.place_vm(make_spec(1, 4, 8192.0, false));
  const auto low = manager.place_vm(make_spec(2, 4, 8192.0, true, 0.2));
  const auto high = manager.place_vm(make_spec(3, 4, 8192.0, true, 0.8));
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_NE(od.host_id, low.host_id);
  EXPECT_NE(low.host_id, high.host_id);
  EXPECT_NE(od.host_id, high.host_id);
}

TEST(ClusterManager, PartitionFullRejectsEvenIfClusterHasRoom) {
  cl::ClusterConfig config = small_cluster(2);
  config.partitioned = true;
  config.pool_weights = {0.5, 0.5};
  cl::ClusterManager manager(config);
  // Fill the on-demand pool (one server).
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, false)).ok());
  const auto result = manager.place_vm(make_spec(2, 8, 16384.0, false));
  // §5.2.1: "if a partition becomes full ... new VMs may have to be
  // rejected using the admission control mechanism".
  EXPECT_FALSE(result.ok());
}

// --- server-level revocations (transient market) ---------------------------

TEST(ClusterManager, RevokeServerMigratesVmsInDeflationMode) {
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 16384.0, true)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 8, 16384.0, true)).ok());
  const std::size_t victim_server = manager.server_of(1).value();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> migrations;
  manager.subscribe_migration([&](const hv::VmSpec& spec, std::uint64_t from,
                                  std::uint64_t to, double /*fraction*/) {
    EXPECT_EQ(from, victim_server);
    migrations.emplace_back(spec.id, to);
  });

  const auto outcome = manager.revoke_server(victim_server);
  EXPECT_EQ(outcome.vms_displaced, 1U);
  EXPECT_EQ(outcome.vms_migrated, 1U);
  EXPECT_EQ(outcome.vms_killed, 0U);
  ASSERT_EQ(migrations.size(), 1U);
  EXPECT_NE(migrations[0].second, victim_server);
  EXPECT_FALSE(manager.server_active(victim_server));
  EXPECT_EQ(manager.active_server_count(), 1U);
  // Both VMs still alive, now co-located on the surviving server.
  EXPECT_NE(manager.find_vm(1), nullptr);
  EXPECT_NE(manager.find_vm(2), nullptr);
  EXPECT_EQ(manager.stats().revocations, 1U);
  EXPECT_EQ(manager.stats().revocation_migrations, 1U);
}

TEST(ClusterManager, RevokeServerKillsVmsInPreemptionMode) {
  cl::ClusterManager manager(
      small_cluster(2, cl::ReclamationMode::Preemption));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 16384.0, true)).ok());
  const std::size_t server = manager.server_of(1).value();
  std::vector<std::uint64_t> killed;
  manager.subscribe_preemption([&](const hv::VmSpec& spec, std::uint64_t host) {
    EXPECT_EQ(host, server);
    killed.push_back(spec.id);
  });
  const auto outcome = manager.revoke_server(server);
  EXPECT_EQ(outcome.vms_displaced, 1U);
  EXPECT_EQ(outcome.vms_killed, 1U);
  EXPECT_EQ(outcome.vms_migrated, 0U);
  ASSERT_EQ(killed.size(), 1U);
  EXPECT_EQ(manager.find_vm(1), nullptr);
  EXPECT_EQ(manager.stats().revocation_kills, 1U);
}

TEST(ClusterManager, RevokedServerRejectsPlacementsUntilRestored) {
  cl::ClusterManager manager(small_cluster(1));
  manager.revoke_server(0);
  EXPECT_FALSE(manager.place_vm(make_spec(1, 4, 8192.0, false)).ok());
  manager.restore_server(0);
  EXPECT_TRUE(manager.server_active(0));
  EXPECT_TRUE(manager.place_vm(make_spec(2, 4, 8192.0, false)).ok());
  EXPECT_EQ(manager.stats().restorations, 1U);
}

TEST(ClusterManager, RevocationKillsWhenNoSurvivorFits) {
  cl::ClusterManager manager(small_cluster(2));
  // Fill both servers with on-demand VMs, plus one deflatable victim.
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, false)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, false)).ok());
  const std::size_t server = manager.server_of(1).value();
  std::vector<std::uint64_t> killed;
  manager.subscribe_preemption(
      [&](const hv::VmSpec& spec, std::uint64_t /*host*/) {
        killed.push_back(spec.id);
      });
  const auto outcome = manager.revoke_server(server);
  // The displaced on-demand VM cannot deflate anyone on the packed
  // survivor, so it is lost.
  EXPECT_EQ(outcome.vms_displaced, 1U);
  EXPECT_EQ(outcome.vms_killed, 1U);
  ASSERT_EQ(killed.size(), 1U);
  EXPECT_EQ(killed[0], 1U);
}

TEST(ClusterManager, RevokeIsIdempotent) {
  cl::ClusterManager manager(small_cluster(2));
  manager.revoke_server(0);
  const auto second = manager.revoke_server(0);
  EXPECT_EQ(second.vms_displaced, 0U);
  EXPECT_EQ(manager.stats().revocations, 1U);
}

TEST(ClusterManager, RevocationKillKeepsPreemptionStatInLockstepWithCallbacks) {
  // Deflation-mode revocation that cannot re-place the displaced VM: the
  // preemption callback fires, and the preemption stat must agree with it
  // (it used to count only in preemption mode).
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, false)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, false)).ok());
  std::size_t callbacks = 0;
  manager.subscribe_preemption(
      [&](const hv::VmSpec&, std::uint64_t) { ++callbacks; });

  const auto outcome = manager.revoke_server(manager.server_of(1).value());
  EXPECT_EQ(outcome.vms_killed, 1U);
  EXPECT_EQ(callbacks, 1U);
  EXPECT_EQ(manager.stats().preemptions, callbacks);
  EXPECT_EQ(manager.stats().preemptions, manager.stats().revocation_kills);
}

TEST(ClusterManager, EmptyServerRevocationLeavesDisplacementStatsUntouched) {
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 16384.0, true)).ok());
  const std::size_t occupied = manager.server_of(1).value();
  const std::size_t empty = 1 - occupied;
  const cl::ClusterStats before = manager.stats();

  std::size_t revocation_events = 0;
  manager.subscribe_revocation(
      [&](std::uint64_t host, const cl::RevocationOutcome& outcome) {
        ++revocation_events;
        EXPECT_EQ(host, empty);
        EXPECT_EQ(outcome.vms_displaced, 0U);
        EXPECT_EQ(outcome.vms_migrated, 0U);
        EXPECT_EQ(outcome.vms_killed, 0U);
      });
  const auto outcome = manager.revoke_server(empty);
  EXPECT_EQ(outcome.vms_displaced, 0U);
  EXPECT_EQ(revocation_events, 1U);

  // The revocation is counted, but none of the displacement machinery ran.
  const cl::ClusterStats& after = manager.stats();
  EXPECT_EQ(after.revocations, before.revocations + 1);
  EXPECT_EQ(after.revocation_migrations, before.revocation_migrations);
  EXPECT_EQ(after.revocation_kills, before.revocation_kills);
  EXPECT_EQ(after.preemptions, before.preemptions);
  EXPECT_EQ(after.placements, before.placements);
  EXPECT_EQ(after.reclamation_attempts, before.reclamation_attempts);
  EXPECT_EQ(after.rejections, before.rejections);
}

TEST(ClusterManager, RestoredServerAndDeparturesReinflateDeflatedSurvivors) {
  // Revocation migrates a VM onto an occupied server, deflating residents
  // there; restoring the revoked server returns capacity (placements land
  // again) and a later departure reinflates the deflated survivors.
  cl::ClusterConfig config = small_cluster(2);
  cl::ClusterManager manager(config);
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, true)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, true)).ok());
  const std::size_t victim = manager.server_of(2).value();

  const auto outcome = manager.revoke_server(victim);
  ASSERT_EQ(outcome.vms_migrated, 1U);
  // Both VMs share one server now; someone had to deflate.
  EXPECT_GT(manager.find_vm(1)->max_deflation_fraction() +
                manager.find_vm(2)->max_deflation_fraction(),
            0.0);

  manager.restore_server(victim);
  EXPECT_TRUE(manager.server_active(victim));
  // The restored capacity is placeable again...
  const auto placed = manager.place_vm(make_spec(3, 16, 32768.0, false));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.host_id, victim);
  // ...and a departure on the crowded server reinflates the survivor.
  ASSERT_TRUE(manager.remove_vm(2));
  EXPECT_DOUBLE_EQ(manager.find_vm(1)->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, ReinflateOnDepartureOffKeepsSurvivorsDeflated) {
  cl::ClusterConfig config = small_cluster(2);
  config.reinflate_on_departure = false;
  cl::ClusterManager manager(config);
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, true)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, true)).ok());
  const std::size_t victim = manager.server_of(2).value();
  ASSERT_EQ(manager.revoke_server(victim).vms_migrated, 1U);
  manager.restore_server(victim);
  const double deflated = manager.find_vm(1)->max_deflation_fraction() +
                          manager.find_vm(2)->max_deflation_fraction();
  ASSERT_GT(deflated, 0.0);

  ASSERT_TRUE(manager.remove_vm(2));
  // The ablation flag holds: the survivor stays deflated after departure.
  EXPECT_GT(manager.find_vm(1)->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, DrainedServerRefusesPlacementsUntilRevokedOrRestored) {
  cl::ClusterManager manager(small_cluster(2));
  manager.drain_server(0);
  const auto placed = manager.place_vm(make_spec(1, 4, 8192.0, false));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.host_id, 1U);  // only the undrained server is eligible
  // Revoking and restoring clears the drain.
  manager.revoke_server(0);
  manager.restore_server(0);
  manager.remove_vm(1);
  EXPECT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, false)).ok());
  EXPECT_TRUE(manager.place_vm(make_spec(3, 16, 32768.0, false)).ok());
}

TEST(ClusterManager, EveryRejectedPlacementCountsOneRejection) {
  // Explicit deflation cannot always reach what the policy promised (whole
  // vCPUs, 128 MiB blocks, guest safety floors), so the chosen server's
  // reclamation sometimes fails after the scan picked it. That rejection
  // counts like every other one: stats().rejections is the number of
  // Rejected results.
  deflate::trace::AzureTraceConfig trace_config;
  trace_config.vm_count = 250;
  trace_config.seed = 3;
  trace_config.duration = deflate::sim::SimTime::from_hours(48);
  const auto records =
      deflate::trace::AzureTraceGenerator(trace_config).generate();

  cl::ClusterConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.server_count =
      deflate::simcluster::TraceDrivenSimulator::servers_for_overcommit(
          records, config.server_capacity, 0.5);
  config.mechanism = deflate::mech::MechanismKind::Explicit;
  config.placement = cl::PlacementStrategy::BestFit;
  cl::ClusterManager manager(config);

  struct Event {
    deflate::sim::SimTime at;
    bool arrival;
    std::size_t index;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < records.size(); ++i) {
    events.push_back({records[i].start, true, i});
    events.push_back({records[i].end, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.arrival != b.arrival) return !a.arrival;  // departures first
    return a.index < b.index;
  });
  std::uint64_t rejected = 0;
  for (const Event& event : events) {
    const auto& record = records[event.index];
    if (!event.arrival) {
      manager.remove_vm(record.id);
      continue;
    }
    const cl::ClusterStats before = manager.stats();
    const cl::PlacementResult placed = manager.place_vm(record.to_spec());
    if (placed.ok()) continue;
    ++rejected;
    EXPECT_EQ(manager.stats().rejections, before.rejections + 1)
        << "vm " << record.id;
  }
  EXPECT_GT(rejected, 0U);
  EXPECT_EQ(manager.stats().rejections, rejected);
}
