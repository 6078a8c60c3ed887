// Tests for the ballooning mechanism and the cluster ablation knobs
// (mechanism choice, placement strategy, reinflation toggle).
#include <gtest/gtest.h>

#include <optional>

#include "cluster/cluster_manager.hpp"
#include "core/perf_model.hpp"
#include "hypervisor/host.hpp"
#include "mechanisms/mechanism.hpp"

namespace hv = deflate::hv;
namespace mech = deflate::mech;
namespace res = deflate::res;
namespace cl = deflate::cluster;
namespace core = deflate::core;

namespace {

struct Rig {
  Rig() : host(0, {48.0, 131072.0, 4000.0, 40000.0}) {}

  hv::Vm& make_vm(double mem = 16384.0) {
    hv::VmSpec spec;
    spec.id = next_id++;
    spec.name = "vm";
    spec.vcpus = 8;
    spec.memory_mib = mem;
    spec.deflatable = true;
    return host.add_vm(spec);
  }

  hv::Host host;
  std::uint64_t next_id = 1;
};

}  // namespace

TEST(Balloon, PageGranularMemoryTarget) {
  Rig rig;
  hv::Vm& vm = rig.make_vm();
  mech::BalloonDeflation balloon;
  // 6000 MiB is not block-aligned; the balloon hits it exactly.
  const auto report =
      balloon.apply(vm, res::ResourceVector(8.0, 6000.0, 200.0, 2000.0));
  EXPECT_TRUE(report.met_target);
  EXPECT_DOUBLE_EQ(vm.guest().usable_memory_mib(), 6000.0);
  EXPECT_DOUBLE_EQ(vm.guest().balloon_mib(), 16384.0 - 6000.0);
  // Plugged memory unchanged: the balloon pins pages, no hot-unplug.
  EXPECT_DOUBLE_EQ(vm.guest().plugged_memory_mib(), 16384.0);
}

TEST(Balloon, SqueezesPastRssWithSwapPressure) {
  Rig rig;
  hv::Vm& vm = rig.make_vm();
  vm.set_rss(9216.0);
  mech::BalloonDeflation balloon;
  balloon.apply(vm, res::ResourceVector(8.0, 4096.0, 200.0, 2000.0));
  // Unlike hotplug, the balloon ignores the RSS threshold...
  EXPECT_DOUBLE_EQ(vm.guest().usable_memory_mib(), 4096.0);
  // ...and the guest pays in swap pressure.
  EXPECT_GT(vm.memory_swap_pressure(), 0.0);
}

TEST(Balloon, DeflatesFullyOnReinflation) {
  Rig rig;
  hv::Vm& vm = rig.make_vm();
  mech::BalloonDeflation balloon;
  balloon.apply(vm, res::ResourceVector(8.0, 4096.0, 200.0, 2000.0));
  balloon.apply(vm, vm.spec().vector());
  EXPECT_DOUBLE_EQ(vm.guest().balloon_mib(), 0.0);
  EXPECT_DOUBLE_EQ(vm.max_deflation_fraction(), 0.0);
}

TEST(Balloon, OtherMechanismsClearTheBalloon) {
  Rig rig;
  hv::Vm& vm = rig.make_vm();
  mech::BalloonDeflation balloon;
  balloon.apply(vm, res::ResourceVector(8.0, 4096.0, 200.0, 2000.0));
  ASSERT_GT(vm.guest().balloon_mib(), 0.0);
  mech::HybridDeflation hybrid;
  hybrid.apply(vm, vm.spec().vector());
  EXPECT_DOUBLE_EQ(vm.guest().balloon_mib(), 0.0);
}

TEST(Balloon, EffectiveAllocationReflectsBalloon) {
  Rig rig;
  hv::Vm& vm = rig.make_vm();
  mech::BalloonDeflation balloon;
  balloon.apply(vm, res::ResourceVector(8.0, 5000.0, 200.0, 2000.0));
  EXPECT_DOUBLE_EQ(vm.effective_allocation()[res::Resource::Memory],
                   5000.0);
}

TEST(BalloonPerfModel, OverheadGrowsWithPinnedFraction) {
  const core::MemoryPerfModel model;
  EXPECT_DOUBLE_EQ(model.rt_multiplier_balloon(0.0, 0.0), 1.0);
  const double small = model.rt_multiplier_balloon(0.0, 0.2);
  const double large = model.rt_multiplier_balloon(0.0, 0.6);
  EXPECT_GT(small, 1.0);
  EXPECT_GT(large, small);
  // Never better than hotplug-assisted deflation at equal pressure.
  EXPECT_GT(model.rt_multiplier_balloon(0.1, 0.3),
            model.rt_multiplier(0.1, true));
}

TEST(MechanismFactory, CreatesAllKinds) {
  for (const auto kind :
       {mech::MechanismKind::Transparent, mech::MechanismKind::Explicit,
        mech::MechanismKind::Hybrid, mech::MechanismKind::Balloon}) {
    const auto mechanism = mech::make_mechanism(kind);
    ASSERT_NE(mechanism, nullptr);
    EXPECT_STREQ(mechanism->name(), mech::mechanism_kind_name(kind));
  }
}

TEST(PlacementStrategies, NamesDistinct) {
  EXPECT_STREQ(cl::placement_strategy_name(cl::PlacementStrategy::Fitness),
               "fitness");
  EXPECT_STREQ(cl::placement_strategy_name(cl::PlacementStrategy::FirstFit),
               "first-fit");
  EXPECT_STREQ(cl::placement_strategy_name(cl::PlacementStrategy::BestFit),
               "best-fit");
  EXPECT_STREQ(cl::placement_strategy_name(cl::PlacementStrategy::WorstFit),
               "worst-fit");
}

namespace {

/// Free-capacity pick over rows with the given free capacity (nothing
/// deflatable), written the way the cluster manager's refresh writes them.
std::optional<std::size_t> strategy_pick(
    cl::PlacementStrategy strategy, const res::ResourceVector& demand,
    const std::vector<res::ResourceVector>& free,
    std::optional<std::size_t> ineligible = std::nullopt) {
  cl::HostScanTable table;
  table.capacity = {48.0, 131072.0, 0.0, 0.0};
  table.resize(free.size());
  for (std::size_t i = 0; i < free.size(); ++i) {
    table.set_row(i, free[i], {}, /*overcommit_i=*/0.0);
    table.eligible[i] = ineligible == i ? 0 : 1;
  }
  return cl::scan_pick_host(
      *cl::make_placement_scorer(cl::placement_strategy_name(strategy)),
      demand, table, 0, free.size(), cl::ScanFeasibility::FreeCapacity,
      /*under_pressure=*/false);
}

}  // namespace

TEST(PlacementStrategies, FirstFitTakesLowestId) {
  const auto best = strategy_pick(
      cl::PlacementStrategy::FirstFit, {8.0, 16384.0, 0.0, 0.0},
      std::vector<res::ResourceVector>(3, {20.0, 40000.0, 0.0, 0.0}),
      /*ineligible=*/0);  // host 0 ineligible
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1U);
}

TEST(PlacementStrategies, BestFitPicksTightestServer) {
  const std::vector<res::ResourceVector> free{
      {40.0, 100000.0, 0.0, 0.0},  // roomy
      {9.0, 17000.0, 0.0, 0.0},    // tight
  };
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  const auto best_fit =
      strategy_pick(cl::PlacementStrategy::BestFit, demand, free);
  const auto worst_fit =
      strategy_pick(cl::PlacementStrategy::WorstFit, demand, free);
  ASSERT_TRUE(best_fit.has_value());
  ASSERT_TRUE(worst_fit.has_value());
  EXPECT_EQ(*best_fit, 1U);
  EXPECT_EQ(*worst_fit, 0U);
}

TEST(AblationKnobs, ReinflationToggle) {
  auto run = [](bool reinflate) {
    cl::ClusterConfig config;
    config.server_count = 1;
    config.server_capacity = {16.0, 32768.0, 1e9, 1e9};
    config.reinflate_on_departure = reinflate;
    cl::ClusterManager manager(config);

    hv::VmSpec resident;
    resident.id = 1;
    resident.name = "resident";
    resident.vcpus = 16;
    resident.memory_mib = 32768.0;
    resident.deflatable = true;
    resident.priority = 0.5;
    manager.place_vm(resident);

    hv::VmSpec visitor;
    visitor.id = 2;
    visitor.name = "visitor";
    visitor.vcpus = 8;
    visitor.memory_mib = 16384.0;
    manager.place_vm(visitor);   // deflates the resident
    manager.remove_vm(2);        // departure
    return manager.find_vm(1)->max_deflation_fraction();
  };
  EXPECT_DOUBLE_EQ(run(true), 0.0);  // reinflated
  EXPECT_GT(run(false), 0.3);        // stays deflated
}

TEST(AblationKnobs, ExplicitMechanismInControllerOverAchieves) {
  cl::ClusterConfig config;
  config.server_count = 1;
  config.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  config.mechanism = mech::MechanismKind::Explicit;
  cl::ClusterManager manager(config);

  hv::VmSpec resident;
  resident.id = 1;
  resident.name = "resident";
  resident.vcpus = 16;
  resident.memory_mib = 32768.0;
  resident.deflatable = true;
  manager.place_vm(resident);

  hv::VmSpec visitor;
  visitor.id = 2;
  visitor.name = "visitor";
  visitor.vcpus = 8;
  visitor.memory_mib = 16384.0;
  const auto result = manager.place_vm(visitor);
  // Explicit hotplug rounds to whole vCPUs, so the reclaim is at least as
  // large as requested here (16 -> 8 is integral) and placement succeeds.
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(manager.find_vm(1)->guest().vcpus(), 8);
}
