#include "hypervisor/guest_os.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hv = deflate::hv;

TEST(GuestOs, InitialState) {
  hv::GuestOs guest(8, 16384.0);
  EXPECT_EQ(guest.vcpus(), 8);
  EXPECT_DOUBLE_EQ(guest.plugged_memory_mib(), 16384.0);
  EXPECT_DOUBLE_EQ(guest.rss_mib(), 0.0);
}

TEST(GuestOs, VcpuUnplugRespectsLoadFloor) {
  hv::GuestOs guest(8, 8192.0);
  guest.set_cpu_load(3.4);  // ceil -> 4 vCPUs needed
  EXPECT_EQ(guest.vcpu_unplug_floor(), 4);
  EXPECT_EQ(guest.request_vcpus(2, 8), 4);  // partial compliance
  EXPECT_EQ(guest.vcpus(), 4);
}

TEST(GuestOs, VcpuUnplugToOneWhenIdle) {
  hv::GuestOs guest(8, 8192.0);
  EXPECT_EQ(guest.request_vcpus(1, 8), 1);
  EXPECT_EQ(guest.request_vcpus(0, 8), 1);  // never below one vCPU
}

TEST(GuestOs, VcpuReplugUpToCap) {
  hv::GuestOs guest(8, 8192.0);
  guest.request_vcpus(1, 8);
  EXPECT_EQ(guest.request_vcpus(16, 8), 8);  // capped at spec
}

TEST(GuestOs, MemoryUnplugBlockAligned) {
  hv::GuestOs guest(4, 8192.0);
  const double granted = guest.request_memory(5000.0, 8192.0);
  EXPECT_DOUBLE_EQ(granted, 5120.0);  // next 128 MiB multiple
  EXPECT_DOUBLE_EQ(std::fmod(granted, hv::kMemoryBlockMib), 0.0);
}

TEST(GuestOs, MemoryUnplugStopsAtRssFloor) {
  hv::GuestOs guest(4, 8192.0, 256.0);
  guest.set_rss(6000.0);
  // Floor = align_up(6000 + 256) = 6272.
  EXPECT_DOUBLE_EQ(guest.memory_unplug_floor_mib(), 6272.0);
  EXPECT_DOUBLE_EQ(guest.request_memory(1024.0, 8192.0), 6272.0);
}

TEST(GuestOs, MemoryReplugNeverExceedsSpec) {
  hv::GuestOs guest(4, 8192.0);
  guest.request_memory(2048.0, 8192.0);
  EXPECT_DOUBLE_EQ(guest.request_memory(100000.0, 8192.0), 8192.0);
}

TEST(GuestOs, RssClampedToAvailableMemory) {
  hv::GuestOs guest(4, 4096.0, 256.0);
  guest.set_rss(999999.0);
  EXPECT_DOUBLE_EQ(guest.rss_mib(), 4096.0 - 256.0);
}

TEST(GuestOs, SwapPressureZeroAboveRss) {
  hv::GuestOs guest(4, 16384.0, 256.0);
  guest.set_rss(9216.0);
  EXPECT_DOUBLE_EQ(guest.swap_pressure(16384.0), 0.0);
  EXPECT_DOUBLE_EQ(guest.swap_pressure(9472.0), 0.0);  // exactly rss+reserve
}

TEST(GuestOs, SwapPressureGrowsBelowRss) {
  hv::GuestOs guest(4, 16384.0, 256.0);
  guest.set_rss(9216.0);
  const double p1 = guest.swap_pressure(9000.0);
  const double p2 = guest.swap_pressure(8000.0);
  EXPECT_GT(p1, 0.0);
  EXPECT_GT(p2, p1);
  EXPECT_LE(p2, 1.0);
}

TEST(GuestOs, SwapPressureWithoutRssIsZero) {
  hv::GuestOs guest(4, 8192.0);
  EXPECT_DOUBLE_EQ(guest.swap_pressure(128.0), 0.0);
}

// Property: for any request sequence, plugged memory stays block-aligned,
// within [floor, spec], and vCPUs within [1, spec].
class GuestOsProperty : public ::testing::TestWithParam<int> {};

TEST_P(GuestOsProperty, InvariantsHoldUnderRandomRequests) {
  const int seed = GetParam();
  hv::GuestOs guest(16, 32768.0);
  guest.set_rss(1000.0 + 500.0 * seed);
  guest.set_cpu_load(seed % 7);
  unsigned state = static_cast<unsigned>(seed) * 2654435761U + 1U;
  auto next = [&state] {
    state = state * 1664525U + 1013904223U;
    return state;
  };
  for (int i = 0; i < 200; ++i) {
    const int cpu_req = static_cast<int>(next() % 20);
    guest.request_vcpus(cpu_req, 16);
    ASSERT_GE(guest.vcpus(), 1);
    ASSERT_LE(guest.vcpus(), 16);
    ASSERT_GE(guest.vcpus(), std::min(16, guest.vcpu_unplug_floor()));

    const double mem_req = static_cast<double>(next() % 40000);
    guest.request_memory(mem_req, 32768.0);
    ASSERT_LE(guest.plugged_memory_mib(), 32768.0);
    ASSERT_GE(guest.plugged_memory_mib(), hv::kMemoryBlockMib);
    ASSERT_NEAR(std::fmod(guest.plugged_memory_mib(), hv::kMemoryBlockMib), 0.0,
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestOsProperty, ::testing::Range(0, 12));
