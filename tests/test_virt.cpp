#include "hypervisor/virt.hpp"

#include <gtest/gtest.h>

namespace hv = deflate::hv;
namespace virt = deflate::virt;

namespace {

hv::VmSpec make_spec(std::uint64_t id) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "dom-" + std::to_string(id);
  spec.vcpus = 8;
  spec.memory_mib = 16384.0;
  spec.disk_bw_mbps = 200.0;
  spec.net_bw_mbps = 2000.0;
  spec.deflatable = true;
  return spec;
}

}  // namespace

TEST(Virt, DefineAndLookup) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  virt::Domain dom = conn.define_and_start(make_spec(1));
  EXPECT_EQ(dom.id(), 1U);
  EXPECT_EQ(dom.name(), "dom-1");
  virt::Domain again = conn.lookup_by_id(1);
  EXPECT_EQ(again.id(), 1U);
}

TEST(Virt, LookupUnknownThrows) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  EXPECT_THROW(conn.lookup_by_id(99), std::out_of_range);
}

TEST(Virt, DestroyRemovesDomain) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  conn.define_and_start(make_spec(1));
  EXPECT_TRUE(conn.destroy(1));
  EXPECT_FALSE(conn.destroy(1));
  EXPECT_THROW(conn.lookup_by_id(1), std::out_of_range);
}

TEST(Virt, InfoReflectsInitialState) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  virt::Domain dom = conn.define_and_start(make_spec(1));
  const auto info = dom.info();
  EXPECT_EQ(info.max_vcpus, 8);
  EXPECT_EQ(info.online_vcpus, 8);
  EXPECT_DOUBLE_EQ(info.cpu_quota_cores, 8.0);
  EXPECT_DOUBLE_EQ(info.max_memory_mib, 16384.0);
  EXPECT_DOUBLE_EQ(info.memory_mib, 16384.0);
  EXPECT_DOUBLE_EQ(info.memory_limit_mib, 16384.0);
}

TEST(Virt, SchedulerQuotaIsTransparent) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  virt::Domain dom = conn.define_and_start(make_spec(1));
  dom.set_scheduler_cpu_quota(2.5);
  const auto info = dom.info();
  EXPECT_DOUBLE_EQ(info.cpu_quota_cores, 2.5);
  EXPECT_EQ(info.online_vcpus, 8);  // guest unaware
  EXPECT_DOUBLE_EQ(dom.vm().effective_allocation().cpu(), 2.5);
}

TEST(Virt, AgentVcpuHotplugIsGuestVisible) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  virt::Domain dom = conn.define_and_start(make_spec(1));
  const auto result = dom.agent_set_vcpus(3);
  EXPECT_DOUBLE_EQ(result.achieved, 3.0);
  EXPECT_EQ(dom.info().online_vcpus, 3);
}

TEST(Virt, AgentHotplugPartialCompliance) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  virt::Domain dom = conn.define_and_start(make_spec(1));
  dom.vm().set_cpu_load(5.2);  // guest needs 6 vCPUs
  const auto result = dom.agent_set_vcpus(2);
  EXPECT_DOUBLE_EQ(result.requested, 2.0);
  EXPECT_DOUBLE_EQ(result.achieved, 6.0);  // stopped at safety floor
}

TEST(Virt, AgentMemoryRespectsRss) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  virt::Domain dom = conn.define_and_start(make_spec(1));
  dom.vm().set_rss(9216.0);
  const auto result = dom.agent_set_memory(4096.0);
  EXPECT_GE(result.achieved, 9216.0);
  EXPECT_DOUBLE_EQ(dom.info().memory_mib, result.achieved);
}

TEST(Virt, IoThrottles) {
  hv::SimHypervisor hypervisor(0, {48.0, 131072.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);
  virt::Domain dom = conn.define_and_start(make_spec(1));
  dom.set_blkio_bandwidth(50.0);
  dom.set_interface_bandwidth(500.0);
  EXPECT_DOUBLE_EQ(dom.info().disk_bw_mbps, 50.0);
  EXPECT_DOUBLE_EQ(dom.info().net_bw_mbps, 500.0);
  EXPECT_DOUBLE_EQ(dom.vm().effective_allocation().disk_bw(), 50.0);
}
