#include "trace/azure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <numbers>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tr = deflate::trace;
namespace hv = deflate::hv;

namespace {

tr::AzureTraceConfig small_config(std::size_t n = 600, std::uint64_t seed = 42) {
  tr::AzureTraceConfig config;
  config.vm_count = n;
  config.seed = seed;
  config.duration = deflate::sim::SimTime::from_hours(48);
  return config;
}

// --- reference series model --------------------------------------------------
//
// The generator's draw sequence written out again with the textbook
// series formula: fmod for the hour of day and sin + pow on every sample.
// generate_vm wraps the hour incrementally and skips sin/pow where the
// clamped half-sine is exactly zero; both must give the same bits.

struct ReferenceVm {
  tr::VmRecord record;
  double start_hours = 0.0;
  double phase_hours = 0.0;
  std::size_t samples = 0;
};

ReferenceVm reference_vm(const tr::AzureTraceConfig& config, std::uint64_t id,
                         bool with_series) {
  using deflate::util::Rng;
  Rng rng = Rng::keyed(config.seed, id);
  ReferenceVm out;
  tr::VmRecord& record = out.record;
  record.id = id;

  const double class_draw = rng.u01();
  if (class_draw < config.interactive_share) {
    record.workload = hv::WorkloadClass::Interactive;
  } else if (class_draw <
             config.interactive_share + config.delay_insensitive_share) {
    record.workload = hv::WorkloadClass::DelayInsensitive;
  } else {
    record.workload = hv::WorkloadClass::Unknown;
  }
  constexpr std::array<int, 12> kVcpus{1, 1, 2, 2, 2, 4, 4, 8, 8, 16, 24, 32};
  constexpr std::array<double, 12> kMemoryGib{1.75, 2.0,  3.5,  4.0,
                                              8.0,  8.0,  16.0, 16.0,
                                              32.0, 64.0, 64.0, 112.0};
  constexpr std::array<double, 12> kWeights{0.16, 0.12, 0.16, 0.12,
                                            0.08, 0.12, 0.08, 0.06,
                                            0.04, 0.03, 0.02, 0.01};
  const std::size_t size = rng.weighted_index(kWeights);
  record.vcpus = kVcpus[size];
  record.memory_mib = kMemoryGib[size] * 1024.0;
  record.disk_bw_mbps = 50.0 + 20.0 * record.vcpus;
  record.net_bw_mbps = 500.0 + 125.0 * record.vcpus;

  const double min_hours = config.min_lifetime.seconds() / 3600.0;
  const double max_hours = config.duration.seconds() / 3600.0;
  double start_hours = 0.0;
  double lifetime_hours = max_hours;
  const double cohort = rng.u01();
  if (cohort < config.persistent_share) {
  } else if (cohort < config.persistent_share + config.diurnal_share) {
    const double diurnal_max =
        std::min(max_hours, config.diurnal_max_lifetime.seconds() / 3600.0);
    lifetime_hours = std::min(
        diurnal_max, rng.bounded_pareto(min_hours, diurnal_max, 1.3));
    const auto days = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(max_hours / 24.0));
    const double day = static_cast<double>(rng.uniform_int(0, days - 1));
    const double hour_of_day = std::clamp(
        rng.normal(config.diurnal_peak_hour, config.diurnal_spread_hours),
        0.0, 23.0);
    start_hours = std::clamp(day * 24.0 + hour_of_day, 0.0,
                             max_hours - lifetime_hours);
  } else {
    lifetime_hours =
        std::min(max_hours, rng.bounded_pareto(min_hours, max_hours, 1.1));
    start_hours = rng.uniform(0.0, max_hours - lifetime_hours);
  }
  record.start = deflate::sim::SimTime::from_hours(start_hours);
  record.end = deflate::sim::SimTime::from_hours(start_hours + lifetime_hours);
  out.start_hours = start_hours;

  double base = 0.0, amp = 0.0, burst_prob = 0.0, burst_hi = 0.0;
  double burst_mean_len = 0.0, severe_prob = 0.0;
  const double activity = rng.u01();
  switch (record.workload) {
    case hv::WorkloadClass::Interactive:
      base = rng.logit_normal(-1.8, 0.55);
      amp = rng.uniform(0.10, 0.40);
      burst_prob = 0.05 + 0.40 * activity * activity;
      burst_hi = 0.60 + 0.40 * activity;
      burst_mean_len = 2.0;
      severe_prob = 0.010;
      break;
    case hv::WorkloadClass::DelayInsensitive: {
      const double batch_activity = std::pow(activity, 0.7);
      base = rng.logit_normal(-1.0, 0.55);
      amp = rng.uniform(0.02, 0.15);
      burst_prob = 0.08 + 0.45 * batch_activity * batch_activity;
      burst_hi = 0.55 + 0.45 * batch_activity;
      burst_mean_len = 6.0;
      severe_prob = 0.015;
      break;
    }
    case hv::WorkloadClass::Unknown:
      base = rng.logit_normal(-1.4, 0.60);
      amp = rng.uniform(0.05, 0.30);
      burst_prob = 0.05 + 0.38 * activity * activity;
      burst_hi = 0.50 + 0.48 * activity;
      burst_mean_len = 3.0;
      severe_prob = 0.012;
      break;
  }
  const double phase = rng.uniform(0.0, 24.0);
  out.phase_hours = phase;
  out.samples = static_cast<std::size_t>(std::max<std::int64_t>(
      1, record.lifetime().micros() / tr::kTraceInterval.micros()));
  if (!with_series) return out;

  std::vector<float> series;
  bool in_burst = false;
  double burst_level = 0.0;
  const double exit_prob = 1.0 / std::max(1.0, burst_mean_len);
  for (std::size_t i = 0; i < out.samples; ++i) {
    if (in_burst) {
      if (rng.u01() < exit_prob) in_burst = false;
    } else if (rng.u01() < burst_prob) {
      in_burst = true;
      burst_level = rng.uniform(base, burst_hi);
    }
    const double hours_of_day =
        std::fmod(start_hours + static_cast<double>(i) * 5.0 / 60.0, 24.0);
    const double angle =
        2.0 * std::numbers::pi * (hours_of_day - phase) / 24.0;
    const double s = std::max(0.0, std::sin(angle));
    double u = base + amp * std::pow(s, 1.5);
    if (in_burst) u = std::max(u, burst_level);
    if (rng.u01() < severe_prob) u = std::max(u, rng.uniform(0.85, 1.0));
    u += rng.normal(0.0, 0.02);
    series.push_back(static_cast<float>(std::clamp(u, 0.0, 1.0)));
  }
  record.cpu = tr::UtilizationSeries(std::move(series));
  return out;
}

/// Header and series equal bit for bit (float == would let -0 match +0).
void expect_same_vm(const tr::VmRecord& got, const tr::VmRecord& want) {
  ASSERT_EQ(got.id, want.id);
  ASSERT_EQ(got.workload, want.workload);
  ASSERT_EQ(got.vcpus, want.vcpus);
  ASSERT_EQ(got.memory_mib, want.memory_mib);
  ASSERT_EQ(got.start, want.start);
  ASSERT_EQ(got.end, want.end);
  const std::vector<float>& a = got.cpu.samples();
  const std::vector<float>& b = want.cpu.samples();
  ASSERT_EQ(a.size(), b.size()) << "vm " << got.id;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "vm " << got.id << " sample " << i;
  }
}

/// Distance, in hours, from the nearest zero crossing of the diurnal sine
/// (h - phase at a multiple of 12 h) over the VM's samples.
double closest_crossing(const ReferenceVm& vm) {
  double closest = 24.0;
  for (std::size_t i = 0; i < vm.samples; ++i) {
    const double h =
        std::fmod(vm.start_hours + static_cast<double>(i) * 5.0 / 60.0, 24.0);
    const double d = h - vm.phase_hours;
    for (const double crossing : {-12.0, 0.0, 12.0, 24.0}) {
      closest = std::min(closest, std::abs(d - crossing));
    }
  }
  return closest;
}

}  // namespace

TEST(AzureTrace, GeneratesRequestedCount) {
  const tr::AzureTraceGenerator gen(small_config(100));
  EXPECT_EQ(gen.generate().size(), 100U);
}

TEST(AzureTrace, DeterministicAcrossCalls) {
  const tr::AzureTraceGenerator gen(small_config(50));
  const auto a = gen.generate();
  const auto b = gen.generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id);
    ASSERT_EQ(a[i].workload, b[i].workload);
    ASSERT_EQ(a[i].vcpus, b[i].vcpus);
    ASSERT_EQ(a[i].cpu.samples(), b[i].cpu.samples());
  }
}

TEST(AzureTrace, PerVmGenerationMatchesBatch) {
  const tr::AzureTraceGenerator gen(small_config(20));
  const auto batch = gen.generate();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto single = gen.generate_vm(i);
    ASSERT_EQ(single.cpu.samples(), batch[i].cpu.samples());
  }
}

TEST(AzureTrace, SeriesMatchReferenceFormulaBitForBit) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 42ULL}) {
    for (const int hours : {24, 72, 168}) {
      tr::AzureTraceConfig config;
      config.vm_count = 250;
      config.seed = seed;
      config.duration = deflate::sim::SimTime::from_hours(hours);
      const tr::AzureTraceGenerator gen(config);
      for (std::uint64_t id = 0; id < config.vm_count; ++id) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ", " << hours << " h");
        expect_same_vm(gen.generate_vm(id),
                       reference_vm(config, id, true).record);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(AzureTrace, SeriesMatchReferenceFormulaAtZeroCrossings) {
  // The generator skips sin/pow only more than 1e-6 h inside a negative
  // half-period. Pick VMs with samples within 1e-5 h of a crossing (their
  // 5-minute grid nearly aligned with the phase), some inside the margin
  // and some just outside it, and compare them bit for bit.
  constexpr double kMargin = 1e-6;
  constexpr double kNear = 1e-5;
  constexpr double kStep = 5.0 / 60.0;
  std::size_t inside_margin = 0;
  std::size_t outside_margin = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 42ULL}) {
    tr::AzureTraceConfig config;
    config.vm_count = 200000;
    config.seed = seed;
    config.duration = deflate::sim::SimTime::from_hours(168);
    const tr::AzureTraceGenerator gen(config);
    for (std::uint64_t id = 0; id < config.vm_count; ++id) {
      const ReferenceVm header = reference_vm(config, id, false);
      const double offset =
          std::fmod(header.start_hours - header.phase_hours + 24.0, kStep);
      if (std::min(offset, kStep - offset) > 2.0 * kNear) continue;
      const double closest = closest_crossing(header);
      if (closest >= kNear) continue;
      ++(closest <= kMargin ? inside_margin : outside_margin);
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", crossing "
                                        << closest << " h away");
      expect_same_vm(gen.generate_vm(id),
                     reference_vm(config, id, true).record);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(inside_margin, 1U);
  EXPECT_GE(outside_margin, 10U);
}

TEST(AzureTrace, DifferentSeedsProduceDifferentTraces) {
  const auto a = tr::AzureTraceGenerator(small_config(10, 1)).generate();
  const auto b = tr::AzureTraceGenerator(small_config(10, 2)).generate();
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cpu.samples() != b[i].cpu.samples()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(AzureTrace, UtilizationInUnitInterval) {
  const auto records = tr::AzureTraceGenerator(small_config(200)).generate();
  for (const auto& record : records) {
    for (const float u : record.cpu.samples()) {
      ASSERT_GE(u, 0.0F);
      ASSERT_LE(u, 1.0F);
    }
  }
}

TEST(AzureTrace, LifetimesWithinHorizon) {
  const auto config = small_config(300);
  const auto records = tr::AzureTraceGenerator(config).generate();
  for (const auto& record : records) {
    ASSERT_GE(record.start.micros(), 0);
    ASSERT_LE(record.end.micros(), config.duration.micros() + 1);
    ASSERT_GE(record.lifetime().micros(), config.min_lifetime.micros() - 1);
  }
}

TEST(AzureTrace, SeriesLengthMatchesLifetime) {
  const auto records = tr::AzureTraceGenerator(small_config(100)).generate();
  for (const auto& record : records) {
    const auto expected = static_cast<std::size_t>(std::max<std::int64_t>(
        1, record.lifetime().micros() / tr::kTraceInterval.micros()));
    ASSERT_EQ(record.cpu.size(), expected);
  }
}

TEST(AzureTrace, ClassMixApproximatesConfig) {
  const auto records = tr::AzureTraceGenerator(small_config(4000)).generate();
  std::map<hv::WorkloadClass, int> counts;
  for (const auto& record : records) ++counts[record.workload];
  const double n = static_cast<double>(records.size());
  EXPECT_NEAR(counts[hv::WorkloadClass::Interactive] / n, 0.50, 0.04);
  EXPECT_NEAR(counts[hv::WorkloadClass::DelayInsensitive] / n, 0.30, 0.04);
  EXPECT_NEAR(counts[hv::WorkloadClass::Unknown] / n, 0.20, 0.04);
}

TEST(AzureTrace, InteractiveVmsHaveMoreSlackThanBatch) {
  // The calibration target behind Fig. 6: at 50% deflation, interactive VMs
  // spend less time above the deflated allocation than batch VMs.
  const auto records = tr::AzureTraceGenerator(small_config(3000)).generate();
  std::vector<double> interactive, batch;
  for (const auto& record : records) {
    const double frac = record.cpu.fraction_above(0.5);
    if (record.workload == hv::WorkloadClass::Interactive) {
      interactive.push_back(frac);
    } else if (record.workload == hv::WorkloadClass::DelayInsensitive) {
      batch.push_back(frac);
    }
  }
  const double med_interactive = deflate::util::quantile(interactive, 0.5);
  const double med_batch = deflate::util::quantile(batch, 0.5);
  EXPECT_LT(med_interactive, med_batch);
}

TEST(AzureTrace, SizeIndependentOfUtilization) {
  // Fig. 7's premise: deflatability does not correlate with VM size.
  const auto records = tr::AzureTraceGenerator(small_config(4000)).generate();
  std::map<tr::SizeBucket, deflate::util::RunningStats> by_size;
  for (const auto& record : records) {
    by_size[record.size_bucket()].push(record.cpu.fraction_above(0.5));
  }
  ASSERT_EQ(by_size.size(), 3U);
  const double small = by_size[tr::SizeBucket::Small].mean();
  const double medium = by_size[tr::SizeBucket::Medium].mean();
  const double large = by_size[tr::SizeBucket::Large].mean();
  EXPECT_NEAR(small, medium, 0.05);
  EXPECT_NEAR(medium, large, 0.05);
}

TEST(AzureTrace, P95BucketsPopulated) {
  // Fig. 8 needs all four P95 buckets represented.
  const auto records = tr::AzureTraceGenerator(small_config(4000)).generate();
  std::map<tr::PeakBucket, int> counts;
  for (const auto& record : records) {
    ++counts[tr::peak_bucket_for_p95(record.p95_cpu())];
  }
  EXPECT_GT(counts[tr::PeakBucket::Low], 0);
  EXPECT_GT(counts[tr::PeakBucket::Moderate], 0);
  EXPECT_GT(counts[tr::PeakBucket::High], 0);
  EXPECT_GT(counts[tr::PeakBucket::VeryHigh], 0);
}

TEST(VmRecord, PriorityFromP95Levels) {
  EXPECT_DOUBLE_EQ(tr::VmRecord::priority_from_p95(0.10), 0.2);
  EXPECT_DOUBLE_EQ(tr::VmRecord::priority_from_p95(0.50), 0.4);
  EXPECT_DOUBLE_EQ(tr::VmRecord::priority_from_p95(0.70), 0.6);
  EXPECT_DOUBLE_EQ(tr::VmRecord::priority_from_p95(0.90), 0.8);
}

TEST(VmRecord, SizeBuckets) {
  EXPECT_EQ(tr::size_bucket_for_memory(1024.0), tr::SizeBucket::Small);
  EXPECT_EQ(tr::size_bucket_for_memory(2048.0), tr::SizeBucket::Small);
  EXPECT_EQ(tr::size_bucket_for_memory(4096.0), tr::SizeBucket::Medium);
  EXPECT_EQ(tr::size_bucket_for_memory(8192.0), tr::SizeBucket::Medium);
  EXPECT_EQ(tr::size_bucket_for_memory(16384.0), tr::SizeBucket::Large);
}

TEST(VmRecord, ToSpecMarksInteractiveDeflatable) {
  const auto records = tr::AzureTraceGenerator(small_config(500)).generate();
  for (const auto& record : records) {
    const auto spec = record.to_spec();
    EXPECT_EQ(spec.deflatable,
              record.workload == hv::WorkloadClass::Interactive);
    if (spec.deflatable) {
      EXPECT_GT(spec.priority, 0.0);
      EXPECT_LT(spec.priority, 1.0);
    } else {
      EXPECT_DOUBLE_EQ(spec.priority, 1.0);
    }
  }
}

TEST(UtilizationSeries, FractionAboveAndPercentile) {
  tr::UtilizationSeries series({0.1F, 0.2F, 0.3F, 0.4F, 0.5F});
  EXPECT_DOUBLE_EQ(series.fraction_above(0.35), 0.4);
  EXPECT_DOUBLE_EQ(series.fraction_above(0.5), 0.0);  // strict inequality
  EXPECT_DOUBLE_EQ(series.fraction_above(0.0), 1.0);
  EXPECT_NEAR(series.percentile(0.5), 0.3, 1e-6);
  EXPECT_NEAR(series.mean(), 0.3, 1e-6);
  EXPECT_NEAR(series.peak(), 0.5, 1e-6);
}

TEST(UtilizationSeries, AtTimeIsPiecewiseConstant) {
  tr::UtilizationSeries series({0.1F, 0.9F});
  EXPECT_FLOAT_EQ(series.at_time(deflate::sim::SimTime::from_minutes(2)), 0.1F);
  EXPECT_FLOAT_EQ(series.at_time(deflate::sim::SimTime::from_minutes(7)), 0.9F);
  EXPECT_FLOAT_EQ(series.at_time(deflate::sim::SimTime::from_hours(5)), 0.9F);
}

TEST(UtilizationSeries, UnderallocationArea) {
  tr::UtilizationSeries series({0.5F, 0.5F, 0.5F, 0.5F});
  const auto result = series.underallocation({0.3F, 0.3F, 0.6F, 0.6F});
  EXPECT_NEAR(result.used, 2.0, 1e-6);
  EXPECT_NEAR(result.lost, 0.4, 1e-6);  // two intervals 0.2 over
}
