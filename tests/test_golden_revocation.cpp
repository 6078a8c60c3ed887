// Golden regression for the revocation scenario (bench/scenario_revocation
// and examples/transient_market): pins the PR-1 headline outcome — with the
// fixed seeds below, deflation absorbs every revocation (0 VM kills) where
// the preemption baseline kills 127 VMs, at a ~45% fleet-cost saving vs
// all-on-demand. Any refactor that silently shifts placement, revocation
// scheduling or cost accounting trips these exact-value assertions.
#include <gtest/gtest.h>

#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"

namespace {

using namespace deflate;

std::vector<trace::VmRecord> golden_trace() {
  trace::AzureTraceConfig config;
  config.vm_count = 1500;
  config.seed = 11;
  config.duration = sim::SimTime::from_hours(72);
  return trace::AzureTraceGenerator(config).generate();
}

simcluster::SimConfig golden_config(cluster::ReclamationMode mode) {
  simcluster::SimConfig config;
  config.server_count = 40;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.mode = mode;
  config.market_enabled = true;
  config.market.seed = 7;
  config.market.revocation.model =
      transient::RevocationModel::TemporallyConstrained;
  config.market.revocation.max_lifetime_hours = 24.0;
  config.market.portfolio.on_demand_floor = 0.2;
  config.market.portfolio.risk_aversion = 2.0;
  return config;
}

}  // namespace

TEST(GoldenRevocation, DeflationAbsorbsRevocationsWithoutKills) {
  simcluster::TraceDrivenSimulator simulator(
      golden_trace(), golden_config(cluster::ReclamationMode::Deflation));
  const simcluster::SimMetrics metrics = simulator.run();

  EXPECT_EQ(metrics.revocations, 94U);
  EXPECT_EQ(metrics.revocation_migrations, 241U);
  EXPECT_EQ(metrics.revocation_kills, 0U);
  // Deflation mode never fires a preemption callback on this trace, and
  // the preemption stat must agree with the callbacks in every mode.
  EXPECT_EQ(metrics.preemptions, 0U);
  EXPECT_DOUBLE_EQ(metrics.failure_probability, 0.0);
  EXPECT_NEAR(100.0 * metrics.throughput_loss, 0.189, 0.01);
  EXPECT_NEAR(metrics.cost.saving_percent(), 44.7, 0.1);
  EXPECT_NEAR(metrics.cost.total_cost(), 76475.0, 5.0);
}

TEST(GoldenRevocation, PreemptionBaselineKillsResidentVms) {
  simcluster::TraceDrivenSimulator simulator(
      golden_trace(), golden_config(cluster::ReclamationMode::Preemption));
  const simcluster::SimMetrics metrics = simulator.run();

  EXPECT_EQ(metrics.revocations, 94U);
  EXPECT_EQ(metrics.revocation_migrations, 0U);
  EXPECT_EQ(metrics.revocation_kills, 127U);
  // The preemption stat now agrees with the preemption callbacks in every
  // mode: 127 revocation kills plus 25 pressure evictions on this trace,
  // each of which fired exactly one callback.
  EXPECT_EQ(metrics.preemptions, 152U);
  EXPECT_GE(metrics.preemptions, metrics.revocation_kills);
  // Same plan, same market: the cost side is identical to deflation; only
  // what happens to the displaced VMs differs.
  EXPECT_NEAR(metrics.cost.saving_percent(), 44.7, 0.1);
}

TEST(GoldenRevocation, InstantMigrationSentinelReproducesGoldenOutcome) {
  // Migration bandwidth 0 is the instant sentinel: even with a revocation
  // warning configured, the simulator must take the legacy free-re-place
  // path and reproduce the golden outcome bit for bit.
  simcluster::SimConfig config = golden_config(cluster::ReclamationMode::Deflation);
  config.market.revocation.warning_hours = 2.0;
  config.migration.model.bandwidth_mib_per_sec = 0.0;
  simcluster::TraceDrivenSimulator simulator(golden_trace(), config);
  const simcluster::SimMetrics metrics = simulator.run();

  EXPECT_EQ(metrics.revocations, 94U);
  EXPECT_EQ(metrics.revocation_migrations, 241U);
  EXPECT_EQ(metrics.revocation_kills, 0U);
  EXPECT_EQ(metrics.live_migrations, 0U);
  EXPECT_EQ(metrics.checkpoint_restores, 0U);
  EXPECT_DOUBLE_EQ(metrics.migration_downtime_hours, 0.0);
  EXPECT_NEAR(100.0 * metrics.throughput_loss, 0.189, 0.01);
  EXPECT_NEAR(metrics.cost.total_cost(), 76475.0, 5.0);
}

TEST(GoldenRevocation, ShardedFleetKeepsDeflationKillFreeOnGoldenTrace) {
  // A sharded fleet may route differently (so migration counts are
  // not pinned) but the scenario's headline — deflation absorbs this
  // revocation schedule without losing a single VM — must survive
  // sharding. Same seeds, 4 shards of 10 servers.
  simcluster::SimConfig config = golden_config(cluster::ReclamationMode::Deflation);
  config.shard_count = 4;
  simcluster::TraceDrivenSimulator simulator(golden_trace(), config);
  const simcluster::SimMetrics metrics = simulator.run();

  EXPECT_EQ(metrics.revocations, 94U);
  EXPECT_EQ(metrics.revocation_kills, 0U);
  EXPECT_NEAR(metrics.cost.saving_percent(), 44.7, 0.1);
}
