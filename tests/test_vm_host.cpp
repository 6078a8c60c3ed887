#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hypervisor/host.hpp"
#include "hypervisor/vm.hpp"

namespace hv = deflate::hv;
namespace res = deflate::res;

namespace {

hv::VmSpec make_spec(std::uint64_t id, int vcpus = 4, double mem = 8192.0,
                     bool deflatable = true, double priority = 0.5) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = vcpus;
  spec.memory_mib = mem;
  spec.disk_bw_mbps = 100.0;
  spec.net_bw_mbps = 1000.0;
  spec.deflatable = deflatable;
  spec.priority = priority;
  return spec;
}

}  // namespace

TEST(VmSpec, VectorReflectsSpec) {
  const auto spec = make_spec(1, 8, 16384.0);
  const auto v = spec.vector();
  EXPECT_DOUBLE_EQ(v.cpu(), 8.0);
  EXPECT_DOUBLE_EQ(v.memory(), 16384.0);
  EXPECT_DOUBLE_EQ(v.disk_bw(), 100.0);
  EXPECT_DOUBLE_EQ(v.net_bw(), 1000.0);
}

TEST(VmSpec, MinVectorScalesByFraction) {
  auto spec = make_spec(1, 8, 16384.0);
  spec.min_fraction = 0.25;
  EXPECT_DOUBLE_EQ(spec.min_vector().cpu(), 2.0);
  EXPECT_DOUBLE_EQ(spec.min_vector().memory(), 4096.0);
}

TEST(Vm, StartsUndeflated) {
  hv::Vm vm(make_spec(1));
  EXPECT_EQ(vm.effective_allocation(), vm.spec().vector());
  EXPECT_DOUBLE_EQ(vm.max_deflation_fraction(), 0.0);
}

TEST(Vm, CpuQuotaDeflatesEffectiveAllocation) {
  hv::Vm vm(make_spec(1, 4));
  vm.set_cpu_quota(1.5);
  EXPECT_DOUBLE_EQ(vm.effective_allocation().cpu(), 1.5);
  EXPECT_DOUBLE_EQ(vm.deflation_fraction(res::Resource::Cpu), 1.0 - 1.5 / 4.0);
  // Guest still sees all vCPUs (transparent).
  EXPECT_EQ(vm.guest().vcpus(), 4);
}

TEST(Vm, CgroupsClampToSpec) {
  hv::Vm vm(make_spec(1, 4, 8192.0));
  vm.set_cpu_quota(100.0);
  vm.set_memory_limit(1e9);
  vm.set_disk_throttle(-5.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().cpu_quota_cores, 4.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().memory_limit_mib, 8192.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().disk_bw_mbps, 0.0);
}

TEST(Vm, VcpuHotplugIsGuestVisible) {
  hv::Vm vm(make_spec(1, 8, 16384.0));
  EXPECT_EQ(vm.request_vcpus(3), 3);
  EXPECT_EQ(vm.guest().vcpus(), 3);
}

TEST(Vm, VcpuHotplugStopsAtLoadFloor) {
  hv::Vm vm(make_spec(1, 8, 16384.0));
  vm.set_cpu_load(5.2);  // guest needs 6 vCPUs
  EXPECT_EQ(vm.request_vcpus(2), 6);
  EXPECT_EQ(vm.guest().vcpus(), 6);
}

TEST(Vm, MemoryHotplugRespectsRss) {
  hv::Vm vm(make_spec(1, 8, 16384.0));
  vm.set_rss(9216.0);
  const double plugged = vm.request_memory(4096.0);
  EXPECT_GE(plugged, 9216.0);
  EXPECT_DOUBLE_EQ(vm.guest().plugged_memory_mib(), plugged);
}

TEST(Vm, IoThrottlesCapEffectiveAllocation) {
  hv::Vm vm(make_spec(1, 8, 16384.0));
  vm.set_disk_throttle(50.0);
  vm.set_net_throttle(500.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().disk_bw_mbps, 50.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().net_bw_mbps, 500.0);
  EXPECT_DOUBLE_EQ(vm.effective_allocation().disk_bw(), 50.0);
  EXPECT_DOUBLE_EQ(vm.effective_allocation().net_bw(), 500.0);
}

TEST(Vm, EffectiveIsMinOfPluggedAndLimit) {
  hv::Vm vm(make_spec(1, 8, 16384.0));
  vm.request_vcpus(4);                     // explicit: 4 plugged
  vm.set_cpu_quota(6.0);                   // limit above plugged
  EXPECT_DOUBLE_EQ(vm.effective_allocation().cpu(), 4.0);
  vm.set_cpu_quota(2.0);                   // limit below plugged
  EXPECT_DOUBLE_EQ(vm.effective_allocation().cpu(), 2.0);
}

TEST(Vm, MemorySwapPressureTracksLimit) {
  hv::Vm vm(make_spec(1, 4, 16384.0));
  vm.set_rss(9216.0);
  vm.set_memory_limit(16384.0);
  EXPECT_DOUBLE_EQ(vm.memory_swap_pressure(), 0.0);
  vm.set_memory_limit(8192.0);
  EXPECT_GT(vm.memory_swap_pressure(), 0.0);
}

TEST(Vm, AllocationFloorRespectsMinFraction) {
  auto spec = make_spec(1, 4, 8192.0);
  spec.min_fraction = 0.5;
  hv::Vm vm(spec);
  const auto floor = vm.allocation_floor();
  EXPECT_DOUBLE_EQ(floor.cpu(), 2.0);
  EXPECT_DOUBLE_EQ(floor.memory(), 4096.0);
}

TEST(Vm, SurvivalFloorWithoutMinFraction) {
  hv::Vm vm(make_spec(1, 4, 8192.0));
  const auto floor = vm.allocation_floor();
  EXPECT_DOUBLE_EQ(floor.cpu(), 0.05);
  EXPECT_DOUBLE_EQ(floor.memory(), hv::kMemoryBlockMib);
}

TEST(Host, AddAndRemoveVms) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(1));
  host.add_vm(make_spec(2));
  EXPECT_EQ(host.vm_count(), 2U);
  EXPECT_NE(host.find_vm(1), nullptr);
  const std::unique_ptr<hv::Vm> removed = host.remove_vm(1);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->spec().id, 1U);
  EXPECT_EQ(host.remove_vm(1), nullptr);
  EXPECT_EQ(host.find_vm(1), nullptr);
  EXPECT_EQ(host.vm_count(), 1U);
  // The removed VM is detached: its writes no longer touch the host.
  const std::uint64_t version = host.version();
  removed->set_cpu_quota(1.0);
  EXPECT_EQ(host.version(), version);
}

TEST(Host, DuplicateIdThrows) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(7));
  EXPECT_THROW(host.add_vm(make_spec(7)), std::invalid_argument);
}

TEST(Host, VmsIterateInArrivalOrder) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(5));
  host.add_vm(make_spec(2));
  host.add_vm(make_spec(9));
  const auto vms = host.vms();
  ASSERT_EQ(vms.size(), 3U);
  EXPECT_EQ(vms[0]->spec().id, 5U);
  EXPECT_EQ(vms[1]->spec().id, 2U);
  EXPECT_EQ(vms[2]->spec().id, 9U);
}

TEST(Host, RemovingFromTheMiddleKeepsArrivalOrder) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  for (const std::uint64_t id : {5U, 2U, 9U, 4U}) host.add_vm(make_spec(id));
  ASSERT_TRUE(host.remove_vm(2));
  host.add_vm(make_spec(2));  // a returning id goes to the back
  std::vector<std::uint64_t> ids;
  for (const hv::Vm* vm : host.vms()) ids.push_back(vm->spec().id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{5, 9, 4, 2}));
  for (const std::uint64_t id : ids) {
    ASSERT_NE(host.find_vm(id), nullptr);
    EXPECT_EQ(host.find_vm(id)->spec().id, id);
  }
}

TEST(Host, AllocationMemoTracksEveryWriter) {
  // Every write to a resident's effective allocation must move the host's
  // version, or the memoized totals go stale. After each writer, the
  // totals must equal a fresh arrival-order sum bit for bit.
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  const auto expect_fresh = [&host](const char* writer) {
    SCOPED_TRACE(writer);
    res::ResourceVector committed;
    res::ResourceVector allocated;
    for (const hv::Vm* vm : host.vms()) {
      committed += vm->spec().vector();
      allocated += vm->effective_allocation();
    }
    for (const res::Resource r : res::all_resources) {
      EXPECT_EQ(host.committed()[r], committed[r]);
      EXPECT_EQ(host.allocated()[r], allocated[r]);
    }
  };
  // Read the totals before and after each write so a stale memo would be
  // returned if the write failed to move the version.
  const auto write = [&](const char* writer, auto&& apply) {
    expect_fresh("before");
    const std::uint64_t version = host.version();
    apply();
    EXPECT_NE(host.version(), version) << writer;
    expect_fresh(writer);
  };

  write("add_vm", [&] { host.add_vm(make_spec(1, 8, 16384.0)); });
  write("add_vm", [&] { host.add_vm(make_spec(2, 6, 12288.0)); });
  write("add_vm", [&] { host.add_vm(make_spec(3, 4, 8192.0)); });
  hv::Vm& vm = *host.find_vm(2);
  write("set_cpu_quota", [&] { vm.set_cpu_quota(2.3); });
  write("set_memory_limit", [&] { vm.set_memory_limit(7000.7); });
  write("set_disk_throttle", [&] { vm.set_disk_throttle(33.3); });
  write("set_net_throttle", [&] { vm.set_net_throttle(444.4); });
  write("cgroup reset", [&] {
    vm.set_cpu_quota(6.0);
    vm.set_memory_limit(12288.0);
  });
  write("request_vcpus", [&] { vm.request_vcpus(3); });
  write("request_memory", [&] { vm.request_memory(5000.0); });
  write("request_memory up", [&] { vm.request_memory(12288.0); });
  write("request_balloon", [&] { vm.request_balloon(9000.5); });
  // An arrival extends current totals in place; after an unread write the
  // totals are stale and the arrival must not extend them.
  write("write, then add_vm", [&] {
    vm.set_cpu_quota(1.7);
    host.add_vm(make_spec(4, 2, 4096.0));
  });
  write("remove_vm", [&] { ASSERT_TRUE(host.remove_vm(4)); });
  write("remove_vm", [&] { ASSERT_TRUE(host.remove_vm(1)); });
  write("remove_vm", [&] { ASSERT_TRUE(host.remove_vm(3)); });
  write("remove_vm", [&] { ASSERT_TRUE(host.remove_vm(2)); });
  EXPECT_TRUE(host.allocated().is_zero());
}

TEST(Host, CommittedAllocatedAvailable) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(1, 8, 16384.0));
  hv::Vm& vm2 = host.add_vm(make_spec(2, 8, 16384.0));
  EXPECT_DOUBLE_EQ(host.committed().cpu(), 16.0);
  EXPECT_DOUBLE_EQ(host.allocated().cpu(), 16.0);
  EXPECT_DOUBLE_EQ(host.available().cpu(), 32.0);

  vm2.set_cpu_quota(2.0);  // deflate vm2's CPU by 6 cores
  EXPECT_DOUBLE_EQ(host.committed().cpu(), 16.0);  // commitments unchanged
  EXPECT_DOUBLE_EQ(host.allocated().cpu(), 10.0);
  EXPECT_DOUBLE_EQ(host.available().cpu(), 38.0);
}

TEST(Host, OvercommitRatio) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  EXPECT_DOUBLE_EQ(host.overcommit_ratio(), 0.0);
  for (int i = 0; i < 9; ++i) host.add_vm(make_spec(100 + i, 8, 8192.0));
  // 72 cores committed on 48 -> ratio 1.5 (CPU-bound).
  EXPECT_DOUBLE_EQ(host.overcommit_ratio(), 1.5);
}

TEST(WorkloadClassNames, Distinct) {
  EXPECT_STREQ(hv::workload_class_name(hv::WorkloadClass::Interactive),
               "interactive");
  EXPECT_STREQ(hv::workload_class_name(hv::WorkloadClass::DelayInsensitive),
               "delay-insensitive");
  EXPECT_STREQ(hv::workload_class_name(hv::WorkloadClass::Unknown), "unknown");
}
