// End-to-end integration tests spanning trace generation, feasibility
// analysis, the deflation stack, and the application models — the paths the
// benchmark harnesses exercise.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/feasibility.hpp"
#include "core/local_controller.hpp"
#include "core/perf_model.hpp"
#include "mechanisms/mechanism.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "workloads/load_balancer.hpp"
#include "workloads/wikipedia.hpp"

namespace an = deflate::analysis;
namespace core = deflate::core;
namespace hv = deflate::hv;
namespace mech = deflate::mech;
namespace res = deflate::res;
namespace sc = deflate::simcluster;
namespace tr = deflate::trace;
namespace wl = deflate::wl;

TEST(Integration, FeasibilityHeadline_Fig5) {
  // "Even at high deflation levels (50%), the median VM spends 80% of the
  // time below the deflated allocation" (§3.2.1).
  tr::AzureTraceConfig config;
  config.vm_count = 2000;
  config.seed = 42;
  config.duration = deflate::sim::SimTime::from_hours(72);
  const auto records = tr::AzureTraceGenerator(config).generate();
  const auto box = an::cpu_underallocation_box(records, 0.5);
  EXPECT_LT(box.median, 0.35);  // well below the allocation most of the time
  EXPECT_GT(box.median, 0.02);  // but not trivially zero
}

TEST(Integration, HybridMemoryDeflationStory_Fig14) {
  // Drive the actual mechanism stack for the SpecJBB memory experiment and
  // check the Fig. 14 shape: flat to ~40%, then transparent deflation pays
  // a swap penalty that hybrid reduces.
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  const core::MemoryPerfModel model;

  auto run = [&](bool hybrid, double deflation) {
    hv::VmSpec spec;
    spec.id = hybrid ? 1 : 2;
    spec.name = "specjbb";
    spec.vcpus = 8;
    spec.memory_mib = 16384.0;
    spec.deflatable = true;
    hv::Vm& vm = host.add_vm(spec);
    vm.set_rss(0.56 * 16384.0);
    std::unique_ptr<mech::DeflationMechanism> mechanism;
    if (hybrid) {
      mechanism = std::make_unique<mech::HybridDeflation>();
    } else {
      mechanism = std::make_unique<mech::TransparentDeflation>();
    }
    res::ResourceVector target = spec.vector();
    target[res::Resource::Memory] = 16384.0 * (1.0 - deflation);
    mechanism->apply(vm, target);
    const bool guest_assisted =
        hybrid && vm.guest().plugged_memory_mib() < spec.memory_mib - 1.0;
    const double rt =
        model.rt_multiplier(vm.memory_swap_pressure(), guest_assisted);
    EXPECT_TRUE(host.remove_vm(spec.id));
    return rt;
  };

  // Flat region: no swap penalty at 30% for either mechanism.
  EXPECT_NEAR(run(false, 0.30), 1.0, 1e-9);
  EXPECT_LT(run(true, 0.30), 1.0);  // hybrid gains ~10%
  // Past the RSS point (44% deflation for RSS 56% + reserve) both pay; the
  // transparent path pays more.
  const double transparent_45 = run(false, 0.45);
  const double hybrid_45 = run(true, 0.45);
  EXPECT_GT(transparent_45, 1.3);
  EXPECT_LT(hybrid_45, transparent_45);
}

TEST(Integration, ControllerNotificationsDriveLoadBalancerWeights) {
  // Fig. 1's notification arrow: the local controller tells the application
  // manager about deflation; a deflation-aware LB re-weights accordingly.
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  core::LocalDeflationController controller(
      host, core::make_policy(core::PolicyKind::Proportional),
      std::make_shared<mech::HybridDeflation>());

  hv::VmSpec spec;
  spec.id = 1;
  spec.name = "web-1";
  spec.vcpus = 10;
  spec.memory_mib = 10240.0;
  spec.deflatable = true;
  hv::Vm& web1 = host.add_vm(spec);
  spec.id = 2;
  spec.name = "web-2";
  host.add_vm(spec);

  wl::SmoothWrr balancer({10.0, 10.0});
  controller.subscribe([&](const hv::Vm& vm, const res::ResourceVector&,
                           const res::ResourceVector& new_alloc) {
    auto weights = balancer.weights();
    weights[vm.spec().id - 1] = new_alloc[res::Resource::Cpu];
    balancer.set_weights(weights);
  });

  controller.apply_allocation(web1, spec.vector() * 0.4);
  EXPECT_DOUBLE_EQ(balancer.weights()[0], 4.0);
  EXPECT_DOUBLE_EQ(balancer.weights()[1], 10.0);
  // The deflated replica now receives ~4/14 of requests.
  int to_deflated = 0;
  for (int i = 0; i < 1400; ++i) {
    if (balancer.pick() == 0) ++to_deflated;
  }
  EXPECT_NEAR(to_deflated, 400, 2);
}

TEST(Integration, TraceToClusterPipeline) {
  // Generate -> persist -> reload -> simulate, mirroring bench/fig20-22.
  tr::AzureTraceConfig config;
  config.vm_count = 300;
  config.seed = 123;
  config.duration = deflate::sim::SimTime::from_hours(36);
  const auto records = tr::AzureTraceGenerator(config).generate();

  sc::SimConfig sim_config;
  sim_config.policy = core::PolicyKind::Deterministic;
  sim_config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  sim_config.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, sim_config.server_capacity, 0.4);
  sc::TraceDrivenSimulator simulator(records, sim_config);
  const auto metrics = simulator.run();

  EXPECT_EQ(metrics.vm_count, 300U);
  EXPECT_GT(metrics.deflatable_count, 100U);
  EXPECT_GE(metrics.failure_probability, 0.0);
  EXPECT_LE(metrics.failure_probability, 1.0);
  EXPECT_GE(metrics.throughput_loss, 0.0);
  EXPECT_LT(metrics.throughput_loss, 0.5);
}

TEST(Integration, WikipediaCliffLocation_Fig16) {
  // The overload cliff must sit past 70% deflation: at 800 req/s and ~8 ms
  // mean demand, 30*(1-0.7) = 9 cores still exceeds the offered load.
  wl::WikipediaConfig config;
  config.duration = deflate::sim::SimTime::from_seconds(80);
  config.warmup = deflate::sim::SimTime::from_seconds(10);
  config.request_rate = 400.0;  // halved load, halved cores: same shape
  config.cores = 15;
  const wl::WikipediaApp app(config);
  const auto at_50 = app.run(0.5);
  const auto at_90 = app.run(0.9);
  EXPECT_GT(at_50.served_fraction, 0.98);
  EXPECT_LT(at_90.served_fraction, 0.9);
  EXPECT_GT(at_90.latency.p90, at_50.latency.p90);
}

TEST(Integration, PerfCurvesConsistentWithQueueingModel) {
  // The abstract model (Fig. 2) and the queueing simulation agree on where
  // performance is flat: inside the slack region.
  const auto curve = core::PerfCurve::abstract_model(0.5, 0.8, 0.4);
  wl::WikipediaConfig config;
  config.duration = deflate::sim::SimTime::from_seconds(40);
  config.warmup = deflate::sim::SimTime::from_seconds(5);
  config.request_rate = 100.0;
  config.cores = 10;
  const wl::WikipediaApp app(config);
  const auto base = app.run(0.0);
  const auto in_slack = app.run(0.4);
  EXPECT_DOUBLE_EQ(curve.performance(0.4), 1.0);
  EXPECT_NEAR(in_slack.latency.p50, base.latency.p50,
              0.2 * base.latency.p50 + 0.05);
}
