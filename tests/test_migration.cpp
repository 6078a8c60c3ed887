// Timed migration engine (src/cluster/migration): the pre-copy time
// model, the warning-driven engine against flat and sharded managers, and
// the simulator-level instant-sentinel parity.
#include "cluster/migration.hpp"

#include <gtest/gtest.h>

#include "cluster/sharded_manager.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace sim = deflate::sim;

namespace {

using namespace deflate;

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

cl::ClusterConfig small_cluster(std::size_t servers) {
  cl::ClusterConfig config;
  config.server_count = servers;
  config.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  return config;
}

cl::MigrationModelConfig model_config(double bandwidth, double dirty = 64.0) {
  cl::MigrationModelConfig config;
  config.bandwidth_mib_per_sec = bandwidth;
  config.dirty_mib_per_sec = dirty;
  return config;
}

}  // namespace

// --- MigrationModel ---------------------------------------------------------

TEST(MigrationModel, InstantSentinelTakesNoTime) {
  const cl::MigrationModel model(model_config(0.0));
  EXPECT_TRUE(model.instant());
  const cl::MigrationEstimate estimate = model.precopy(32768.0);
  EXPECT_EQ(estimate.duration, sim::SimTime{});
  EXPECT_EQ(estimate.downtime, sim::SimTime{});
}

TEST(MigrationModel, PrecopyGrowsWithFootprintAndDowntimeStaysSmall) {
  const cl::MigrationModel model(model_config(256.0, 64.0));
  const cl::MigrationEstimate small = model.precopy(4096.0);
  const cl::MigrationEstimate large = model.precopy(32768.0);
  EXPECT_TRUE(small.converged);
  EXPECT_GT(large.duration, small.duration);
  // Converging pre-copy: the VM pauses only for the last dirty sliver,
  // which the threshold caps (64 MiB at 256 MiB/s = 0.25 s).
  EXPECT_LT(small.downtime, small.duration);
  EXPECT_LE(large.downtime.seconds(), 64.0 / 256.0 + 1e-9);
  // First round alone takes footprint/bandwidth; total exceeds it.
  EXPECT_GT(large.duration.seconds(), 32768.0 / 256.0);
}

TEST(MigrationModel, DirtyRateAtBandwidthNeverConverges) {
  const cl::MigrationModel model(model_config(100.0, 100.0));
  const cl::MigrationEstimate estimate = model.precopy(8192.0);
  EXPECT_FALSE(estimate.converged);
  // Stop-and-copy of a fully redirtied footprint: downtime == bulk round.
  EXPECT_DOUBLE_EQ(estimate.downtime.seconds(), 8192.0 / 100.0);
}

TEST(MigrationModel, CheckpointPausesForTheWholeTransfer) {
  const cl::MigrationModel model(model_config(128.0));
  const cl::MigrationEstimate estimate = model.checkpoint(4096.0);
  EXPECT_EQ(estimate.duration, estimate.downtime);
  EXPECT_DOUBLE_EQ(estimate.duration.seconds(), 4096.0 / 128.0);
}

// --- MigrationEngine --------------------------------------------------------

TEST(MigrationEngine, AmpleWarningLiveMigratesEveryResident) {
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 16384.0, true)).ok());
  const std::size_t victim = manager.server_of(1).value();

  cl::MigrationEngineConfig config;
  config.model = model_config(256.0);
  cl::MigrationEngine engine(config, manager);

  const sim::SimTime now = sim::SimTime::from_hours(1.0);
  const sim::SimTime deadline = now + sim::SimTime::from_minutes(10.0);
  const cl::WarningResult warned = engine.begin_warning(victim, now, deadline);
  ASSERT_EQ(warned.started.size(), 1U);
  EXPECT_TRUE(warned.suspended.empty());
  const cl::MigrationRecord& record = warned.started[0];
  EXPECT_EQ(record.from, victim);
  EXPECT_NE(record.to, victim);
  EXPECT_TRUE(record.live);
  EXPECT_GT(record.cutover_end, now);
  EXPECT_LE(record.cutover_end, deadline);
  EXPECT_LT(record.cutover_begin, record.cutover_end);  // paused to cut over
  // The VM already lives on the destination; the doomed server is drained
  // and no longer a placement candidate.
  EXPECT_EQ(manager.server_of(1).value(), record.to);
  const cl::PlacementResult probe =
      manager.place_vm(make_spec(9, 2, 4096.0, false));
  ASSERT_TRUE(probe.ok());
  EXPECT_NE(probe.host_id, victim);

  const cl::RevocationFinish finish =
      engine.finish_revocation(victim, deadline, {});
  EXPECT_TRUE(finish.restored.empty());
  EXPECT_TRUE(finish.killed.empty());
  EXPECT_FALSE(manager.server_active(victim));
  EXPECT_EQ(engine.stats().live_migrations, 1U);
  EXPECT_EQ(engine.stats().checkpoint_kills, 0U);
}

TEST(MigrationEngine, MissedDeadlineFallsBackToCheckpointRestore) {
  cl::ClusterManager manager(small_cluster(2));
  // 32 GiB at 64 MiB/s needs ~512 s for the first round alone.
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 32768.0, true)).ok());
  const std::size_t victim = manager.server_of(1).value();

  cl::MigrationEngineConfig config;
  config.model = model_config(64.0);
  config.strategy_name = "checkpoint";
  cl::MigrationEngine engine(config, manager);

  const sim::SimTime now;
  const sim::SimTime deadline = sim::SimTime::from_seconds(30.0);
  const cl::WarningResult warned = engine.begin_warning(victim, now, deadline);
  EXPECT_TRUE(warned.started.empty());  // cannot finish streaming in time
  EXPECT_TRUE(warned.suspended.empty());
  EXPECT_EQ(manager.server_of(1).value(), victim);  // still running at home

  const cl::RevocationFinish finish =
      engine.finish_revocation(victim, deadline, {});
  ASSERT_EQ(finish.restored.size(), 1U);
  EXPECT_FALSE(finish.restored[0].live);
  EXPECT_EQ(finish.restored[0].cutover_begin, deadline);
  EXPECT_GT(finish.restored[0].cutover_end, deadline);
  EXPECT_TRUE(finish.killed.empty());
  EXPECT_EQ(engine.stats().checkpoint_restores, 1U);
  EXPECT_NE(manager.find_vm(1), nullptr);
}

TEST(MigrationEngine, PureMigrationKillsWhatMissesTheDeadline) {
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 32768.0, true)).ok());
  const std::size_t victim = manager.server_of(1).value();

  cl::MigrationEngineConfig config;
  config.model = model_config(64.0);
  config.strategy_name = "migrate";  // pure-migration baseline
  cl::MigrationEngine engine(config, manager);

  engine.begin_warning(victim, {}, sim::SimTime::from_seconds(30.0));
  const cl::RevocationFinish finish =
      engine.finish_revocation(victim, sim::SimTime::from_seconds(30.0), {});
  ASSERT_EQ(finish.killed.size(), 1U);
  EXPECT_EQ(finish.killed[0].id, 1U);
  EXPECT_EQ(engine.stats().checkpoint_kills, 1U);
  EXPECT_EQ(manager.find_vm(1), nullptr);
}

TEST(MigrationEngine, DeflatedTransferFitsWarningsFullFootprintCannot) {
  // 32 GiB at 64 MiB/s misses a 200 s warning at full size but fits when
  // only the deflated quarter streams — the paper's deflation advantage.
  cl::MigrationEngineConfig full;
  full.model = model_config(64.0, /*dirty=*/16.0);
  cl::MigrationEngineConfig deflated = full;
  deflated.strategy_name = "hybrid";

  cl::ClusterManager manager_full(small_cluster(2));
  ASSERT_TRUE(manager_full.place_vm(make_spec(1, 8, 32768.0, true)).ok());
  cl::ClusterManager manager_defl(small_cluster(2));
  ASSERT_TRUE(manager_defl.place_vm(make_spec(1, 8, 32768.0, true)).ok());

  const sim::SimTime deadline = sim::SimTime::from_seconds(200.0);
  cl::MigrationEngine engine_full(full, manager_full);
  cl::MigrationEngine engine_defl(deflated, manager_defl);
  const std::size_t victim_full = manager_full.server_of(1).value();
  const std::size_t victim_defl = manager_defl.server_of(1).value();
  EXPECT_TRUE(
      engine_full.begin_warning(victim_full, {}, deadline).started.empty());
  EXPECT_EQ(
      engine_defl.begin_warning(victim_defl, {}, deadline).started.size(), 1U);
}

TEST(MigrationEngine, SuspendedVmRestoresWhenCapacityFreesByDeadline) {
  // Destination full at warning time; a departure before the deadline
  // frees room and the suspended (checkpointed) VM is restored there.
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 4096.0, true)).ok());
  const std::size_t victim = manager.server_of(1).value();
  const std::size_t other = 1 - victim;
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, false)).ok());
  ASSERT_EQ(manager.server_of(2).value(), other);

  cl::MigrationEngineConfig config;
  config.model = model_config(256.0);
  cl::MigrationEngine engine(config, manager);

  const sim::SimTime deadline = sim::SimTime::from_minutes(5.0);
  const cl::WarningResult warned = engine.begin_warning(victim, {}, deadline);
  ASSERT_EQ(warned.suspended.size(), 1U);  // fits the warning, nowhere to go
  EXPECT_EQ(warned.suspended[0].id, 1U);
  EXPECT_EQ(manager.find_vm(1), nullptr);  // checkpointed: resources released

  ASSERT_TRUE(manager.remove_vm(2));  // the blocking VM departs
  const cl::RevocationFinish finish =
      engine.finish_revocation(victim, deadline, warned.suspended);
  ASSERT_EQ(finish.restored.size(), 1U);
  EXPECT_TRUE(finish.killed.empty());
  EXPECT_EQ(engine.stats().checkpoint_restores, 1U);
  EXPECT_EQ(manager.server_of(1).value(), other);
}

TEST(MigrationEngine, LiveMigrationLandsCrossShardWhenHomeShardIsFull) {
  cl::ShardedClusterConfig config;
  config.cluster = small_cluster(4);
  config.shard_count = 2;  // shard 0: servers 0-1, shard 1: servers 2-3
  cl::ClusterManager manager(config);

  // Victim: 8 cores with a hard 50% floor, so a 16-core filler can never
  // deflate its way onto the victim's server.
  hv::VmSpec victim_vm = make_spec(1, 8, 8192.0, true, /*priority=*/0.9);
  victim_vm.min_fraction = 0.5;
  cl::PlacementResult placed = manager.place_vm(victim_vm);
  ASSERT_TRUE(placed.ok());
  std::uint64_t filler_id = 100;
  while (placed.host_id >= 2) {  // keep the victim in shard 0 for the test
    manager.remove_vm(victim_vm.id);
    victim_vm.id = ++filler_id;
    placed = manager.place_vm(victim_vm);
    ASSERT_TRUE(placed.ok());
  }
  const std::size_t victim_server = placed.host_id;
  const std::size_t other0 = 1 - victim_server;

  // Pack shard 0's other server with on-demand load; fillers the router
  // parks in shard 1 are removed again, leaving shard 1 with headroom.
  std::vector<std::uint64_t> shard1_fillers;
  while (manager.host(other0).committed().cpu() < 16.0) {
    const std::uint64_t id = ++filler_id;
    const cl::PlacementResult filler =
        manager.place_vm(make_spec(id, 16, 32768.0, false));
    ASSERT_TRUE(filler.ok());
    if (filler.host_id >= 2) shard1_fillers.push_back(id);
  }
  for (const std::uint64_t id : shard1_fillers) manager.remove_vm(id);

  cl::MigrationEngineConfig engine_config;
  engine_config.model = model_config(256.0);
  cl::MigrationEngine engine(engine_config, manager);
  const cl::WarningResult warned = engine.begin_warning(
      victim_server, {}, sim::SimTime::from_minutes(10.0));
  ASSERT_EQ(warned.started.size(), 1U);
  EXPECT_GE(warned.started[0].to, 2U) << "must land in the other shard";
  EXPECT_EQ(manager.server_of(victim_vm.id).value(), warned.started[0].to);
}

// --- simulator-level sentinel parity ---------------------------------------

namespace {

std::vector<trace::VmRecord> sim_trace() {
  trace::AzureTraceConfig config;
  config.vm_count = 400;
  config.seed = 11;
  config.duration = sim::SimTime::from_hours(48);
  return trace::AzureTraceGenerator(config).generate();
}

simcluster::SimConfig market_config() {
  simcluster::SimConfig config;
  config.server_count = 16;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.market_enabled = true;
  config.market.seed = 7;
  config.market.revocation.model =
      transient::RevocationModel::TemporallyConstrained;
  config.market.portfolio.on_demand_floor = 0.2;
  return config;
}

}  // namespace

TEST(TimedMigrationSim, BandwidthZeroSentinelMatchesLegacyPathExactly) {
  // Setting a warning but leaving bandwidth at 0 must change nothing:
  // instant migration is the legacy path, bit for bit.
  const auto records = sim_trace();
  simcluster::TraceDrivenSimulator legacy(records, market_config());
  const simcluster::SimMetrics base = legacy.run();

  simcluster::SimConfig sentinel = market_config();
  sentinel.market.revocation.warning_hours = 6.0;
  sentinel.migration.model.bandwidth_mib_per_sec = 0.0;
  simcluster::TraceDrivenSimulator timed(records, sentinel);
  const simcluster::SimMetrics metrics = timed.run();

  EXPECT_EQ(metrics.revocations, base.revocations);
  EXPECT_EQ(metrics.revocation_migrations, base.revocation_migrations);
  EXPECT_EQ(metrics.revocation_kills, base.revocation_kills);
  EXPECT_EQ(metrics.preemptions, base.preemptions);
  EXPECT_EQ(metrics.live_migrations, 0U);
  EXPECT_EQ(metrics.checkpoint_restores, 0U);
  EXPECT_DOUBLE_EQ(metrics.throughput_loss, base.throughput_loss);
  EXPECT_DOUBLE_EQ(metrics.cost.total_cost(), base.cost.total_cost());
  EXPECT_DOUBLE_EQ(metrics.cost.migration_downtime_cost, 0.0);
}

TEST(TimedMigrationSim, GenerousWarningKeepsTheFleetKillFree) {
  const auto records = sim_trace();
  simcluster::SimConfig config = market_config();
  config.market.revocation.warning_hours = 600.0 / 3600.0;  // 10 min
  config.migration.model.bandwidth_mib_per_sec = 512.0;
  config.migration.strategy_name = "hybrid";
  simcluster::TraceDrivenSimulator simulator(records, config);
  const simcluster::SimMetrics metrics = simulator.run();

  EXPECT_GT(metrics.revocations, 0U);
  EXPECT_EQ(metrics.checkpoint_kills, 0U);
  EXPECT_GT(metrics.live_migrations + metrics.checkpoint_restores, 0U);
  // Timed migration is not free: any checkpoint/stop-and-copy downtime
  // shows up in the bill.
  EXPECT_GE(metrics.cost.migration_downtime_cost, 0.0);
  EXPECT_EQ(metrics.revocation_migrations,
            metrics.live_migrations + metrics.checkpoint_restores);
}

// --- bandwidth contention ---------------------------------------------------

TEST(MigrationModel, TwoStreamContentionHalvesTheLink) {
  // With share_bandwidth on, 2 simultaneous streams each see half the
  // link: the estimate is identical to a lone stream on a half-bandwidth
  // link, and pins the 2-stream slowdown exactly.
  cl::MigrationModelConfig shared = model_config(256.0, 32.0);
  shared.share_bandwidth = true;
  const cl::MigrationModel contended(shared);
  const cl::MigrationModel halved(model_config(128.0, 32.0));

  const cl::MigrationEstimate two = contended.precopy(8192.0, /*streams=*/2);
  const cl::MigrationEstimate lone = halved.precopy(8192.0);
  EXPECT_EQ(two.duration, lone.duration);
  EXPECT_EQ(two.downtime, lone.downtime);
  EXPECT_EQ(two.converged, lone.converged);
  EXPECT_GT(two.duration, contended.precopy(8192.0, 1).duration);

  const cl::MigrationEstimate ckpt = contended.checkpoint(4096.0, 2);
  EXPECT_DOUBLE_EQ(ckpt.duration.seconds(), 2.0 * 4096.0 / 256.0);
}

TEST(MigrationModel, ContentionOffIgnoresStreamCount) {
  const cl::MigrationModel model(model_config(256.0, 32.0));
  EXPECT_EQ(model.precopy(8192.0, 4).duration, model.precopy(8192.0).duration);
  EXPECT_EQ(model.checkpoint(4096.0, 4).duration,
            model.checkpoint(4096.0).duration);
}

TEST(MigrationEngine, ContentionShrinksWhatFitsTheWarning) {
  // Two residents whose transfers fit the deadline alone but not at half
  // bandwidth: with contention on, neither live-migrates inside the
  // warning (they fall to the deadline's checkpoint path).
  const auto run = [](bool share) -> std::size_t {
    cl::ClusterConfig cluster = small_cluster(3);
    cluster.placement = cl::PlacementStrategy::FirstFit;  // co-locate both
    cl::ClusterManager manager(cluster);
    if (!manager.place_vm(make_spec(1, 4, 12288.0, true)).ok() ||
        !manager.place_vm(make_spec(2, 4, 12288.0, true)).ok()) {
      ADD_FAILURE() << "setup: placements failed";
      return 0;
    }
    const std::size_t s1 = manager.server_of(1).value();
    const std::size_t s2 = manager.server_of(2).value();
    if (s1 != s2) {
      ADD_FAILURE() << "setup: VMs must share the doomed server";
      return 0;
    }

    cl::MigrationEngineConfig config;
    config.model = model_config(64.0, 16.0);
    config.model.share_bandwidth = share;
    cl::MigrationEngine engine(config, manager);
    // Deadline fits one 12 GiB transfer at 64 MiB/s (~220 s of streaming
    // fits 400 s), but not at 32 MiB/s effective.
    const sim::SimTime now;
    const sim::SimTime deadline = sim::SimTime::from_seconds(400.0);
    const cl::WarningResult warned = engine.begin_warning(s1, now, deadline);
    return warned.started.size();
  };
  EXPECT_EQ(run(false), 2U);
  EXPECT_EQ(run(true), 0U);
}
