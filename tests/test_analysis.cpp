#include "analysis/feasibility.hpp"

#include <gtest/gtest.h>

#include "scoped_env.hpp"
#include "trace/alibaba.hpp"
#include "trace/azure.hpp"

namespace an = deflate::analysis;
namespace tr = deflate::trace;
namespace hv = deflate::hv;

namespace {

tr::VmRecord make_record(std::uint64_t id, std::vector<float> samples,
                         hv::WorkloadClass workload = hv::WorkloadClass::Unknown,
                         double memory = 4096.0) {
  tr::VmRecord record;
  record.id = id;
  record.workload = workload;
  record.vcpus = 4;
  record.memory_mib = memory;
  record.start = deflate::sim::SimTime::from_hours(0);
  record.end = deflate::sim::SimTime::from_minutes(
      5.0 * static_cast<double>(samples.size()));
  record.cpu = tr::UtilizationSeries(std::move(samples));
  return record;
}

}  // namespace

TEST(Feasibility, FractionAboveDeflatedAllocation) {
  // Deflation 40% -> allocation 0.6: two of four samples above.
  const std::vector<tr::VmRecord> records{
      make_record(1, {0.5F, 0.7F, 0.9F, 0.2F})};
  const auto fractions = an::cpu_underallocation_fractions(records, 0.4);
  ASSERT_EQ(fractions.size(), 1U);
  EXPECT_DOUBLE_EQ(fractions[0], 0.5);
}

TEST(Feasibility, ZeroDeflationMeansNoUnderallocation) {
  const std::vector<tr::VmRecord> records{
      make_record(1, {0.5F, 0.9F, 1.0F})};
  const auto box = an::cpu_underallocation_box(records, 0.0);
  EXPECT_DOUBLE_EQ(box.median, 0.0);  // usage never exceeds full allocation
}

TEST(Feasibility, MonotoneInDeflation) {
  tr::AzureTraceConfig config;
  config.vm_count = 300;
  config.seed = 3;
  config.duration = deflate::sim::SimTime::from_hours(24);
  const auto records = tr::AzureTraceGenerator(config).generate();
  double prev = -1.0;
  for (const double d : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double median = an::cpu_underallocation_box(records, d).median;
    ASSERT_GE(median, prev);
    prev = median;
  }
}

TEST(Feasibility, FilterRestrictsPopulation) {
  const std::vector<tr::VmRecord> records{
      make_record(1, {1.0F, 1.0F}, hv::WorkloadClass::Interactive),
      make_record(2, {0.0F, 0.0F}, hv::WorkloadClass::DelayInsensitive)};
  const auto interactive_only = an::cpu_underallocation_fractions(
      records, 0.5, [](const tr::VmRecord& r) {
        return r.workload == hv::WorkloadClass::Interactive;
      });
  ASSERT_EQ(interactive_only.size(), 1U);
  EXPECT_DOUBLE_EQ(interactive_only[0], 1.0);
}

TEST(Feasibility, ContainerBoxUsesSelectedSeries) {
  tr::ContainerRecord container;
  container.id = 1;
  container.memory = tr::UtilizationSeries({0.95F, 0.95F});
  container.memory_bw = tr::UtilizationSeries({0.001F, 0.001F});
  container.disk_bw = tr::UtilizationSeries({0.05F, 0.05F});
  container.net_bw = tr::UtilizationSeries({0.10F, 0.10F});
  const std::vector<tr::ContainerRecord> containers{container};

  EXPECT_DOUBLE_EQ(
      an::container_underallocation_box(containers, an::memory_series, 0.1)
          .median,
      1.0);
  EXPECT_DOUBLE_EQ(
      an::container_underallocation_box(containers, an::disk_series, 0.5).median,
      0.0);
}

TEST(Feasibility, ContainerUtilizationStats) {
  tr::ContainerRecord container;
  container.memory_bw = tr::UtilizationSeries({0.001F, 0.003F});
  const std::vector<tr::ContainerRecord> containers{container};
  const auto stats =
      an::container_utilization_stats(containers, an::memory_bw_series);
  EXPECT_EQ(stats.count(), 2U);
  EXPECT_NEAR(stats.mean(), 0.002, 1e-9);
  EXPECT_NEAR(stats.max(), 0.003, 1e-9);
}

// Fig. 10's statistic is one RunningStats per container, merged in
// container order: the same bits at any thread count, never an order set
// by which chunk finished first.
TEST(Feasibility, ContainerUtilizationStatsIndependentOfThreadCount) {
  tr::AlibabaTraceConfig config;
  config.container_count = 300;
  config.seed = 17;
  config.duration = deflate::sim::SimTime::from_hours(6);
  const auto containers = tr::AlibabaTraceGenerator(config).generate();

  deflate::util::RunningStats expected;
  for (const tr::ContainerRecord& container : containers) {
    deflate::util::RunningStats one;
    for (const float s : an::memory_bw_series(container).samples()) {
      one.push(static_cast<double>(s));
    }
    expected.merge(one);
  }

  for (const char* threads : {"1", "4"}) {
    const deflate::testutil::ScopedEnv env("DEFLATE_THREADS", threads);
    for (int repeat = 0; repeat < 5; ++repeat) {
      const auto stats =
          an::container_utilization_stats(containers, an::memory_bw_series);
      SCOPED_TRACE(std::string("DEFLATE_THREADS=") + threads);
      EXPECT_EQ(stats.count(), expected.count());
      EXPECT_EQ(stats.mean(), expected.mean());
      EXPECT_EQ(stats.variance(), expected.variance());
      EXPECT_EQ(stats.sum(), expected.sum());
      EXPECT_EQ(stats.min(), expected.min());
      EXPECT_EQ(stats.max(), expected.max());
    }
  }
}

TEST(Feasibility, ThroughputLossMatchesHandComputation) {
  const auto record = make_record(1, {0.5F, 0.5F, 0.1F, 0.1F});
  // Allocation 0.3: two intervals lose 0.2 each; total usage 1.2.
  EXPECT_NEAR(an::throughput_loss(record, 0.3), 0.4 / 1.2, 1e-6);
  // Full allocation: no loss.
  EXPECT_DOUBLE_EQ(an::throughput_loss(record, 1.0), 0.0);
}

TEST(Feasibility, ThroughputLossZeroUsage) {
  const auto record = make_record(1, {0.0F, 0.0F});
  EXPECT_DOUBLE_EQ(an::throughput_loss(record, 0.5), 0.0);
}

// Property: the box median of a population of identical VMs equals the
// single-VM fraction, for any deflation level.
class FeasibilitySweep : public ::testing::TestWithParam<int> {};

TEST_P(FeasibilitySweep, HomogeneousPopulation) {
  const double d = GetParam() / 100.0;
  std::vector<tr::VmRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(
        make_record(static_cast<std::uint64_t>(i), {0.2F, 0.4F, 0.6F, 0.8F}));
  }
  const auto box = an::cpu_underallocation_box(records, d);
  const double expected = records[0].cpu.fraction_above(1.0 - d);
  EXPECT_DOUBLE_EQ(box.median, expected);
  EXPECT_DOUBLE_EQ(box.min, box.max);  // identical VMs
}

INSTANTIATE_TEST_SUITE_P(Deflations, FeasibilitySweep,
                         ::testing::Values(0, 10, 20, 30, 40, 50, 60, 70, 80,
                                           90));
