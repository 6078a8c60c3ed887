// The Azure generator's reference series model, shared by the trace
// tests: the generator's draw sequence written out again with the
// textbook series formula, fmod for the hour of day and sin + pow on
// every sample. generate_vm wraps the hour incrementally, skips the sine
// and the power where the clamped half-sine is exactly zero, and computes
// s^1.5 as s * sqrt(s); both must give the same bits.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "trace/azure.hpp"
#include "util/rng.hpp"

namespace deflate::testutil {

struct ReferenceVm {
  trace::VmRecord record;
  double start_hours = 0.0;
  double phase_hours = 0.0;
  std::size_t samples = 0;
};

inline ReferenceVm reference_vm(const trace::AzureTraceConfig& config,
                                std::uint64_t id, bool with_series) {
  using util::Rng;
  Rng rng = Rng::keyed(config.seed, id);
  ReferenceVm out;
  trace::VmRecord& record = out.record;
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
  record.start = sim::SimTime::from_hours(start_hours);
  record.end = sim::SimTime::from_hours(start_hours + lifetime_hours);
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
      1, record.lifetime().micros() / trace::kTraceInterval.micros()));
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
  record.cpu = trace::UtilizationSeries(std::move(series));
  return out;
}

/// Header and series equal bit for bit (float == would let -0 match +0).
inline void expect_same_vm(const trace::VmRecord& got,
                           const trace::VmRecord& want) {
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

}  // namespace deflate::testutil
