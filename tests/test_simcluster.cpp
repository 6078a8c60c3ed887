#include "simcluster/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "trace/azure.hpp"

namespace sc = deflate::simcluster;
namespace tr = deflate::trace;
namespace cl = deflate::cluster;
namespace core = deflate::core;
namespace res = deflate::res;

namespace {

std::vector<tr::VmRecord> small_trace(std::size_t n = 400,
                                      std::uint64_t seed = 77) {
  tr::AzureTraceConfig config;
  config.vm_count = n;
  config.seed = seed;
  config.duration = deflate::sim::SimTime::from_hours(48);
  return tr::AzureTraceGenerator(config).generate();
}

sc::SimConfig config_for(const std::vector<tr::VmRecord>& records,
                         double overcommit,
                         core::PolicyKind policy = core::PolicyKind::Proportional,
                         cl::ReclamationMode mode = cl::ReclamationMode::Deflation) {
  sc::SimConfig config;
  config.policy = policy;
  config.mode = mode;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, config.server_capacity, overcommit);
  return config;
}

}  // namespace

TEST(SimCluster, PeakCommittedMatchesHandCount) {
  std::vector<tr::VmRecord> records(2);
  records[0].id = 0;
  records[0].vcpus = 4;
  records[0].memory_mib = 8192.0;
  records[0].start = deflate::sim::SimTime::from_hours(0);
  records[0].end = deflate::sim::SimTime::from_hours(2);
  records[1].id = 1;
  records[1].vcpus = 8;
  records[1].memory_mib = 16384.0;
  records[1].start = deflate::sim::SimTime::from_hours(1);
  records[1].end = deflate::sim::SimTime::from_hours(3);
  const auto peak = sc::TraceDrivenSimulator::peak_committed(records);
  EXPECT_DOUBLE_EQ(peak.cpu(), 12.0);  // both alive in [1, 2)
  EXPECT_DOUBLE_EQ(peak.memory(), 24576.0);
}

TEST(SimCluster, ServerSizingInverseInOvercommit) {
  const auto records = small_trace();
  const res::ResourceVector cap{48.0, 128.0 * 1024.0, 1e9, 1e9};
  const auto s0 = sc::TraceDrivenSimulator::servers_for_overcommit(records, cap, 0.0);
  const auto s50 =
      sc::TraceDrivenSimulator::servers_for_overcommit(records, cap, 0.5);
  EXPECT_GT(s0, s50);
  EXPECT_GE(s0, 1U);
}

TEST(SimCluster, NoFailuresOnMinimumFeasibleCluster) {
  // §7.1.2's baseline: the minimum cluster size found by simulation runs
  // the whole trace without a single reclamation failure or rejection.
  const auto records = small_trace();
  auto config = config_for(records, 0.0);
  config.server_count =
      sc::TraceDrivenSimulator::minimum_feasible_servers(records, config);
  sc::TraceDrivenSimulator simulator(records, config);
  const auto metrics = simulator.run();
  EXPECT_EQ(metrics.reclamation_failures, 0U);
  EXPECT_EQ(metrics.rejections, 0U);
  // Transient deflation while VMs arrive at tight packing costs a sliver
  // of throughput even when every placement succeeds.
  EXPECT_LT(metrics.throughput_loss, 5e-3);
}

TEST(SimCluster, MinimumFeasibleAtLeastPeakBound) {
  const auto records = small_trace();
  const auto config = config_for(records, 0.0);
  const auto peak_bound = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, config.server_capacity, 0.0);
  const auto feasible =
      sc::TraceDrivenSimulator::minimum_feasible_servers(records, config);
  EXPECT_GE(feasible, peak_bound);
  // Fragmentation overhead should be modest (well under 2x).
  EXPECT_LE(feasible, peak_bound * 2);
}

TEST(SimCluster, RunIsSingleShot) {
  const auto records = small_trace(50);
  sc::TraceDrivenSimulator simulator(records, config_for(records, 0.0));
  simulator.run();
  EXPECT_THROW(simulator.run(), std::logic_error);
}

TEST(SimCluster, OvercommitmentCausesDeflation) {
  const auto records = small_trace();
  sc::TraceDrivenSimulator simulator(records, config_for(records, 0.5));
  const auto metrics = simulator.run();
  EXPECT_GT(metrics.achieved_overcommit, 0.3);
  EXPECT_GT(metrics.reclamation_attempts, 0U);
  EXPECT_GT(metrics.mean_cpu_deflation, 0.0);
  // The headline claim: deflation at 50% overcommit keeps failures rare and
  // throughput loss around or below a percent.
  EXPECT_LT(metrics.failure_probability, 0.05);
  EXPECT_LT(metrics.throughput_loss, 0.05);
}

TEST(SimCluster, ThroughputLossGrowsWithOvercommit) {
  const auto records = small_trace();
  sc::TraceDrivenSimulator low(records, config_for(records, 0.2));
  sc::TraceDrivenSimulator high(records, config_for(records, 0.8));
  const auto m_low = low.run();
  const auto m_high = high.run();
  EXPECT_LE(m_low.throughput_loss, m_high.throughput_loss + 1e-9);
}

TEST(SimCluster, PreemptionBaselineKillsVms) {
  const auto records = small_trace();
  sc::TraceDrivenSimulator simulator(
      records, config_for(records, 0.6, core::PolicyKind::Proportional,
                          cl::ReclamationMode::Preemption));
  const auto metrics = simulator.run();
  EXPECT_GT(metrics.preemptions, 0U);
  EXPECT_GT(metrics.preemption_probability, 0.0);
  EXPECT_LE(metrics.preemption_probability, 1.0);
}

TEST(SimCluster, DeflationBeatsPreemptionOnFailures) {
  const auto records = small_trace();
  sc::TraceDrivenSimulator deflation(records, config_for(records, 0.6));
  sc::TraceDrivenSimulator preemption(
      records, config_for(records, 0.6, core::PolicyKind::Proportional,
                          cl::ReclamationMode::Preemption));
  const auto m_deflation = deflation.run();
  const auto m_preemption = preemption.run();
  // Fig. 20's core result: deflation nearly eliminates the failures that
  // preemption suffers.
  EXPECT_LT(m_deflation.failure_probability,
            m_preemption.preemption_probability);
}

TEST(SimCluster, RevenueIntegralsPopulated) {
  const auto records = small_trace();
  sc::TraceDrivenSimulator simulator(records, config_for(records, 0.3));
  const auto metrics = simulator.run();
  EXPECT_GT(metrics.revenue.od_committed_core_hours, 0.0);
  EXPECT_GT(metrics.revenue.df_committed_core_hours, 0.0);
  EXPECT_GT(metrics.revenue.df_allocated_core_hours, 0.0);
  // Allocation never exceeds commitment.
  EXPECT_LE(metrics.revenue.df_allocated_core_hours,
            metrics.revenue.df_committed_core_hours + 1e-6);
  // Priority-weighted is bounded by priorities in (0, 1).
  EXPECT_LT(metrics.revenue.df_priority_committed_core_hours,
            metrics.revenue.df_committed_core_hours);
}

TEST(SimCluster, DeterministicAcrossRuns) {
  const auto records = small_trace(200);
  sc::TraceDrivenSimulator a(records, config_for(records, 0.5));
  sc::TraceDrivenSimulator b(records, config_for(records, 0.5));
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_EQ(ma.reclamation_attempts, mb.reclamation_attempts);
  EXPECT_EQ(ma.reclamation_failures, mb.reclamation_failures);
  EXPECT_DOUBLE_EQ(ma.throughput_loss, mb.throughput_loss);
  EXPECT_DOUBLE_EQ(ma.revenue.df_allocated_core_hours,
                   mb.revenue.df_allocated_core_hours);
}

TEST(SimCluster, PriorityPolicyReducesLossVsProportional) {
  const auto records = small_trace(800, 5);
  sc::TraceDrivenSimulator proportional(
      records, config_for(records, 0.6, core::PolicyKind::Proportional));
  sc::TraceDrivenSimulator priority(
      records, config_for(records, 0.6, core::PolicyKind::Priority));
  const auto m_prop = proportional.run();
  const auto m_prio = priority.run();
  // §7.4.2: priority-awareness deflates high-utilization VMs less, reducing
  // cluster-wide throughput loss.
  EXPECT_LE(m_prio.throughput_loss, m_prop.throughput_loss + 1e-9);
}

// The full ablation-knob matrix must run end-to-end and stay deterministic.
struct KnobCase {
  deflate::mech::MechanismKind mechanism;
  cl::PlacementStrategy placement;
  bool reinflate;
};

class SimClusterKnobs : public ::testing::TestWithParam<KnobCase> {};

TEST_P(SimClusterKnobs, EndToEndAndDeterministic) {
  const auto [mechanism, placement, reinflate] = GetParam();
  const auto records = small_trace(250, 3);
  auto config = config_for(records, 0.5);
  config.mechanism = mechanism;
  config.placement = placement;
  config.reinflate_on_departure = reinflate;

  sc::TraceDrivenSimulator a(records, config);
  sc::TraceDrivenSimulator b(records, config);
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_DOUBLE_EQ(ma.throughput_loss, mb.throughput_loss);
  EXPECT_EQ(ma.reclamation_failures, mb.reclamation_failures);
  EXPECT_GE(ma.throughput_loss, 0.0);
  EXPECT_LE(ma.throughput_loss, 1.0);
  EXPECT_LE(ma.failure_probability, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, SimClusterKnobs,
    ::testing::Values(
        KnobCase{deflate::mech::MechanismKind::Hybrid,
                 cl::PlacementStrategy::Fitness, true},
        KnobCase{deflate::mech::MechanismKind::Transparent,
                 cl::PlacementStrategy::FirstFit, true},
        KnobCase{deflate::mech::MechanismKind::Explicit,
                 cl::PlacementStrategy::BestFit, true},
        KnobCase{deflate::mech::MechanismKind::Balloon,
                 cl::PlacementStrategy::WorstFit, true},
        KnobCase{deflate::mech::MechanismKind::Hybrid,
                 cl::PlacementStrategy::Fitness, false}));

TEST(SimCluster, NoReinflationMeansDeeperMeanDeflation) {
  const auto records = small_trace(600, 9);
  auto with = config_for(records, 0.5);
  auto without = with;
  without.reinflate_on_departure = false;
  sc::TraceDrivenSimulator sim_with(records, with);
  sc::TraceDrivenSimulator sim_without(records, without);
  const auto m_with = sim_with.run();
  const auto m_without = sim_without.run();
  EXPECT_GE(m_without.mean_cpu_deflation, m_with.mean_cpu_deflation);
  EXPECT_GE(m_without.throughput_loss, m_with.throughput_loss);
}

TEST(SimCluster, SubsetSelectionRespectsBudget) {
  const auto records = small_trace(300);
  double df_core_hours = 0.0;
  for (const auto& r : records) {
    if (r.deflatable()) {
      df_core_hours += r.vcpus * r.lifetime().hours();
    }
  }
  const auto half =
      sc::TraceDrivenSimulator::select_deflatable_subset(records, df_core_hours / 2);
  double selected = 0.0;
  std::size_t od_count = 0, od_total = 0;
  for (const auto& r : half) {
    if (r.deflatable()) {
      selected += r.vcpus * r.lifetime().hours();
    } else {
      ++od_count;
    }
  }
  for (const auto& r : records) {
    if (!r.deflatable()) ++od_total;
  }
  EXPECT_LE(selected, df_core_hours / 2 + 1e-6);
  EXPECT_GT(selected, df_core_hours / 4);  // greedy fill gets close
  EXPECT_EQ(od_count, od_total);           // on-demand always kept
}

TEST(SimCluster, TelemetryObserverSeesActiveServersAndChangesNothing) {
  // The sim stands in for the paper's per-server controllers: every tick
  // boundary hands each active server to the observer. Instrumentation
  // never feeds a decision, so the run is identical with or without one.
  tr::AzureTraceConfig trace_config;
  trace_config.vm_count = 30;
  trace_config.duration = deflate::sim::SimTime::from_hours(6);
  trace_config.seed = 7;
  const auto records = tr::AzureTraceGenerator(trace_config).generate();

  sc::SimConfig config;
  config.server_count = 8;
  config.market_enabled = true;
  config.market.revocation.model = deflate::transient::RevocationModel::Poisson;
  sc::TraceDrivenSimulator plain(records, config);
  const sc::SimMetrics expected = plain.run();

  std::uint64_t reports = 0;
  std::size_t max_server = 0;
  config.telemetry_bus = [&](std::size_t server, const deflate::hv::Host&) {
    max_server = std::max(max_server, server);
    ++reports;
  };
  sc::TraceDrivenSimulator observed(records, config);
  const sc::SimMetrics metrics = observed.run();

  EXPECT_GT(metrics.vm_count, 0U);
  // Multiple ticks, each reporting every active server.
  EXPECT_GE(reports, 2U * config.server_count);
  EXPECT_LT(max_server, config.server_count);
  EXPECT_EQ(metrics, expected);
  EXPECT_EQ(metrics.cost, expected.cost);
  EXPECT_EQ(observed.cluster_stats(), plain.cluster_stats());
}

TEST(SimCluster, TimedMigrationSuspendsAtTheWarningAndKillsAtRevocation) {
  // Two servers: server 0 on-demand, filled by one non-deflatable VM;
  // server 1 transient, hosting one small deflatable VM, and revoked once
  // (never restored). The VM's transfer fits the warning, but no server
  // can take it, so it is checkpointed (suspended) at the warning, finds
  // no destination at the deadline either, is killed, and is billed as
  // preempted.
  const auto hours = [](double h) {
    return deflate::sim::SimTime::from_hours(h);
  };
  std::vector<tr::VmRecord> records(2);
  records[0].id = 0;
  records[0].vcpus = 48;
  records[0].memory_mib = 128.0 * 1024.0;
  records[0].workload = deflate::hv::WorkloadClass::DelayInsensitive;
  records[1].id = 1;
  records[1].vcpus = 4;
  records[1].memory_mib = 64.0;
  records[1].workload = deflate::hv::WorkloadClass::Interactive;
  for (tr::VmRecord& record : records) {
    record.start = hours(0.0);
    record.end = hours(10.0);
    record.cpu = tr::UtilizationSeries(std::vector<float>(120, 0.5F));
  }
  ASSERT_FALSE(records[0].deflatable());
  ASSERT_TRUE(records[1].deflatable());

  sc::SimConfig config;
  config.server_count = 2;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.market_enabled = true;
  config.market.use_portfolio = false;
  config.market.on_demand_share = 0.5;
  // A lifetime cap of 2 h with the mass piled against it: server 1 is
  // revoked once, just before 2 h, and never handed back.
  config.market.revocation.model =
      deflate::transient::RevocationModel::TemporallyConstrained;
  config.market.revocation.max_lifetime_hours = 2.0;
  config.market.revocation.early_fraction = 0.0;
  config.market.revocation.late_shape = 1000.0;
  config.market.revocation.recovery_hours = 1000.0;
  const double warning_hours = 0.1;
  config.market.revocation.warning_hours = warning_hours;
  // Timed hybrid migration over a near-zero link: 0.1 MiB/s streams the
  // VM's deflated 16 MiB in 160 s, inside the 6-minute warning.
  config.migration.strategy_name = "hybrid";
  config.migration.model.bandwidth_mib_per_sec = 0.1;
  config.migration.model.dirty_mib_per_sec = 0.0;

  sc::TraceDrivenSimulator simulator(records, config);
  const sc::SimMetrics metrics = simulator.run();

  EXPECT_EQ(metrics.revocations, 1U);
  // Both VMs launched; the only failed placements are the suspended VM's
  // at the warning and at the deadline.
  EXPECT_EQ(metrics.rejections, 2U);
  // Suspended at the warning: nothing migrated, yet the VM was paused from
  // the warning to the deadline.
  EXPECT_EQ(metrics.live_migrations, 0U);
  EXPECT_EQ(metrics.checkpoint_restores, 0U);
  EXPECT_NEAR(metrics.migration_downtime_hours, warning_hours, 1e-9);
  // Killed at the revocation, and counted as a preemption.
  EXPECT_EQ(metrics.checkpoint_kills, 1U);
  EXPECT_EQ(metrics.revocation_kills, 1U);
  EXPECT_EQ(metrics.preemptions, 1U);
  // Billed as preempted: its 4 cores go unserved from the revocation
  // (in [1.9 h, 2 h]) to its 10 h departure.
  EXPECT_GE(metrics.unserved_core_hours, 4.0 * (10.0 - 2.0) - 1e-9);
  EXPECT_LE(metrics.unserved_core_hours, 4.0 * (10.0 - 1.9) + 1e-9);
}
