#include "mechanisms/mechanism.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "hypervisor/host.hpp"

namespace hv = deflate::hv;
namespace mech = deflate::mech;
namespace res = deflate::res;

namespace {

struct Rig {
  Rig() : host(0, {48.0, 131072.0, 4000.0, 40000.0}) {}

  hv::Vm& make_vm(int vcpus = 8, double mem = 16384.0) {
    hv::VmSpec spec;
    spec.id = next_id++;
    spec.name = "vm";
    spec.vcpus = vcpus;
    spec.memory_mib = mem;
    spec.disk_bw_mbps = 200.0;
    spec.net_bw_mbps = 2000.0;
    spec.deflatable = true;
    return host.add_vm(spec);
  }

  hv::Host host;
  std::uint64_t next_id = 1;
};

}  // namespace

TEST(Transparent, HitsTargetExactlyOnAllResources) {
  Rig rig;
  hv::Vm& vm = rig.make_vm();
  mech::TransparentDeflation mechanism;
  const res::ResourceVector target(3.5, 6000.0, 120.0, 900.0);
  const auto report = mechanism.apply(vm, target);
  EXPECT_TRUE(report.met_target);
  EXPECT_EQ(report.achieved, target);
  // Guest view unchanged: all vCPUs and memory still plugged.
  EXPECT_EQ(vm.guest().vcpus(), 8);
  EXPECT_DOUBLE_EQ(vm.guest().plugged_memory_mib(), 16384.0);
}

TEST(Transparent, ClampsTargetToSpec) {
  Rig rig;
  hv::Vm& vm = rig.make_vm(4, 8192.0);
  mech::TransparentDeflation mechanism;
  const auto report =
      mechanism.apply(vm, res::ResourceVector(100.0, 1e9, 1e9, 1e9));
  EXPECT_EQ(report.achieved, vm.spec().vector());
}

TEST(Transparent, ReinflatesAfterDeflation) {
  Rig rig;
  hv::Vm& vm = rig.make_vm();
  mech::TransparentDeflation mechanism;
  mechanism.apply(vm, res::ResourceVector(2.0, 4096.0, 50.0, 500.0));
  const auto report = mechanism.apply(vm, vm.spec().vector());
  EXPECT_TRUE(report.met_target);
  EXPECT_DOUBLE_EQ(vm.max_deflation_fraction(), 0.0);
}

TEST(Explicit, CpuRoundsUpToWholeVcpus) {
  Rig rig;
  hv::Vm& vm = rig.make_vm(8);
  mech::ExplicitDeflation mechanism;
  const auto report =
      mechanism.apply(vm, res::ResourceVector(2.5, 16384.0, 200.0, 2000.0));
  // 2.5 cores -> 3 vCPUs; coarse-grained, target not met exactly.
  EXPECT_EQ(vm.guest().vcpus(), 3);
  EXPECT_DOUBLE_EQ(report.achieved[res::Resource::Cpu], 3.0);
  EXPECT_FALSE(report.met_target);
}

TEST(Explicit, MemoryBlockAlignedAndRssSafe) {
  Rig rig;
  hv::Vm& vm = rig.make_vm(8, 16384.0);
  vm.set_rss(6000.0);
  mech::ExplicitDeflation mechanism;
  const auto report =
      mechanism.apply(vm, res::ResourceVector(8.0, 2048.0, 200.0, 2000.0));
  const double mem = report.achieved[res::Resource::Memory];
  EXPECT_GE(mem, 6000.0);  // never below RSS
  EXPECT_NEAR(std::fmod(mem, hv::kMemoryBlockMib), 0.0, 1e-9);
}

TEST(Explicit, CannotDeflateIo) {
  Rig rig;
  hv::Vm& vm = rig.make_vm();
  mech::ExplicitDeflation mechanism;
  const auto report =
      mechanism.apply(vm, res::ResourceVector(8.0, 16384.0, 10.0, 10.0));
  // NIC/disk unplug is unsafe (§4.3): I/O stays at spec.
  EXPECT_DOUBLE_EQ(report.achieved[res::Resource::DiskBw], 200.0);
  EXPECT_DOUBLE_EQ(report.achieved[res::Resource::NetBw], 2000.0);
}

TEST(Hybrid, ReachesFractionalTargets) {
  Rig rig;
  hv::Vm& vm = rig.make_vm(8, 16384.0);
  mech::HybridDeflation mechanism;
  const res::ResourceVector target(2.5, 6000.0, 120.0, 900.0);
  const auto report = mechanism.apply(vm, target);
  EXPECT_TRUE(report.met_target);
  EXPECT_EQ(report.achieved, target);
}

TEST(Hybrid, HotplugsDownToRoundedTarget) {
  Rig rig;
  hv::Vm& vm = rig.make_vm(8, 16384.0);
  mech::HybridDeflation mechanism;
  mechanism.apply(vm, res::ResourceVector(2.5, 6000.0, 200.0, 2000.0));
  // Fig. 13: hotplug to round_up(2.5) = 3, multiplexing covers 0.5.
  EXPECT_EQ(vm.guest().vcpus(), 3);
  EXPECT_DOUBLE_EQ(vm.cgroups().cpu_quota_cores, 2.5);
  // Memory: plugged to ceil(6000/128)*128 = 6016, limit at 6000.
  EXPECT_DOUBLE_EQ(vm.guest().plugged_memory_mib(), 6016.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().memory_limit_mib, 6000.0);
}

TEST(Hybrid, MultiplexingCoversGuestRefusal) {
  Rig rig;
  hv::Vm& vm = rig.make_vm(8, 16384.0);
  vm.set_cpu_load(6.5);  // guest keeps >= 7 vCPUs
  mech::HybridDeflation mechanism;
  const auto report =
      mechanism.apply(vm, res::ResourceVector(2.0, 16384.0, 200.0, 2000.0));
  EXPECT_EQ(vm.guest().vcpus(), 7);  // hotplug under-delivered
  EXPECT_TRUE(report.met_target);         // cgroups took up the slack
  EXPECT_DOUBLE_EQ(report.achieved[res::Resource::Cpu], 2.0);
}

TEST(Hybrid, MemoryHotplugStopsAtRssButLimitContinues) {
  Rig rig;
  hv::Vm& vm = rig.make_vm(8, 16384.0);
  vm.set_rss(9216.0);
  mech::HybridDeflation mechanism;
  const auto report =
      mechanism.apply(vm, res::ResourceVector(8.0, 4096.0, 200.0, 2000.0));
  EXPECT_GE(vm.guest().plugged_memory_mib(), 9216.0);        // safety threshold
  EXPECT_DOUBLE_EQ(vm.cgroups().memory_limit_mib, 4096.0);
  EXPECT_DOUBLE_EQ(report.achieved[res::Resource::Memory], 4096.0);
  EXPECT_GT(vm.memory_swap_pressure(), 0.0);  // squeezed below RSS
}

TEST(Hybrid, ReinflationRestoresFullAllocation) {
  Rig rig;
  hv::Vm& vm = rig.make_vm(8, 16384.0);
  mech::HybridDeflation mechanism;
  mechanism.apply(vm, res::ResourceVector(1.0, 2048.0, 20.0, 200.0));
  EXPECT_GT(vm.max_deflation_fraction(), 0.5);
  const auto report = mechanism.apply(vm, vm.spec().vector());
  EXPECT_TRUE(report.met_target);
  EXPECT_EQ(vm.guest().vcpus(), 8);
  EXPECT_DOUBLE_EQ(vm.guest().plugged_memory_mib(), 16384.0);
  EXPECT_DOUBLE_EQ(vm.max_deflation_fraction(), 0.0);
}

TEST(MechanismNames, Distinct) {
  mech::TransparentDeflation t;
  mech::ExplicitDeflation e;
  mech::HybridDeflation h;
  EXPECT_STREQ(t.name(), "transparent");
  EXPECT_STREQ(e.name(), "explicit");
  EXPECT_STREQ(h.name(), "hybrid");
}

// Property sweep: for any deflation fraction, hybrid and transparent hit the
// target exactly (effective allocation), and the explicit mechanism never
// under-allocates CPU/memory relative to the target.
class MechanismSweep : public ::testing::TestWithParam<int> {};

TEST_P(MechanismSweep, TargetSemantics) {
  const double d = GetParam() / 100.0;
  Rig rig;
  const res::ResourceVector spec(8.0, 16384.0, 200.0, 2000.0);
  const res::ResourceVector target = spec * (1.0 - d);

  hv::Vm& vm_t = rig.make_vm();
  mech::TransparentDeflation transparent;
  EXPECT_TRUE(transparent.apply(vm_t, target).met_target);

  hv::Vm& vm_h = rig.make_vm();
  mech::HybridDeflation hybrid;
  EXPECT_TRUE(hybrid.apply(vm_h, target).met_target);

  hv::Vm& vm_e = rig.make_vm();
  mech::ExplicitDeflation explicit_mech;
  const auto report = explicit_mech.apply(vm_e, target);
  EXPECT_GE(report.achieved[res::Resource::Cpu],
            target[res::Resource::Cpu] - 1e-9);
  EXPECT_GE(report.achieved[res::Resource::Memory],
            target[res::Resource::Memory] - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(DeflationLevels, MechanismSweep,
                         ::testing::Values(0, 5, 10, 20, 30, 40, 50, 60, 70, 80,
                                           90, 95));
