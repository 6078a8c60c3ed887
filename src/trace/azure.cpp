#include "trace/azure.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "util/rng.hpp"
#include "util/parallel.hpp"

namespace deflate::trace {

namespace {

/// Azure-like VM size menu: (vcpus, memory GiB, popularity weight).
struct SizeOption {
  int vcpus;
  double memory_gib;
  double weight;
};

// Largest size stays below the 48-core/128-GiB host (Azure's biggest
// standard sizes leave hypervisor headroom on the machine).
constexpr std::array<SizeOption, 12> kSizeMenu{{
    {1, 1.75, 0.16}, {1, 2.0, 0.12}, {2, 3.5, 0.16}, {2, 4.0, 0.12},
    {2, 8.0, 0.08},  {4, 8.0, 0.12}, {4, 16.0, 0.08}, {8, 16.0, 0.06},
    {8, 32.0, 0.04}, {16, 64.0, 0.03}, {24, 64.0, 0.02}, {32, 112.0, 0.01},
}};

/// Per-VM stochastic utilization parameters.
struct UtilModel {
  double base;        ///< always-on utilization floor
  double diurnal_amp; ///< day/night swing amplitude
  double phase_hours; ///< diurnal phase offset
  double burst_prob;  ///< per-interval probability of an interval-max spike
  double burst_hi;    ///< spike ceiling
  double burst_mean_len;  ///< mean burst length in intervals
  double severe_prob;     ///< rare near-saturation interval-max spikes
  double noise_sigma;
};

UtilModel sample_model(hv::WorkloadClass workload, util::Rng& rng) {
  UtilModel m{};
  // "activity" couples burstiness and peak height so the population spans
  // Fig. 8's four P95 buckets.
  const double activity = rng.u01();
  switch (workload) {
    case hv::WorkloadClass::Interactive:
      m.base = rng.logit_normal(-1.8, 0.55);            // median ~0.14
      m.diurnal_amp = rng.uniform(0.10, 0.40);
      m.burst_prob = 0.05 + 0.40 * activity * activity; // median ~0.15
      m.burst_hi = 0.60 + 0.40 * activity;
      m.burst_mean_len = 2.0;
      m.severe_prob = 0.010;
      break;
    case hv::WorkloadClass::DelayInsensitive: {
      const double batch_activity = std::pow(activity, 0.7);  // skew busier
      m.base = rng.logit_normal(-1.0, 0.55);            // median ~0.27
      m.diurnal_amp = rng.uniform(0.02, 0.15);          // batch barely diurnal
      m.burst_prob = 0.08 + 0.45 * batch_activity * batch_activity;
      m.burst_hi = 0.55 + 0.45 * batch_activity;
      m.burst_mean_len = 6.0;                           // long busy phases
      m.severe_prob = 0.015;
      break;
    }
    case hv::WorkloadClass::Unknown:
      m.base = rng.logit_normal(-1.4, 0.60);
      m.diurnal_amp = rng.uniform(0.05, 0.30);
      m.burst_prob = 0.05 + 0.38 * activity * activity;
      m.burst_hi = 0.50 + 0.48 * activity;
      m.burst_mean_len = 3.0;
      m.severe_prob = 0.012;
      break;
  }
  m.phase_hours = rng.uniform(0.0, 24.0);
  m.noise_sigma = 0.02;
  return m;
}

/// base + amp * max(0, sin(2*pi*(h - phase)/24))^1.5: a positive half-sine
/// sharpened to concentrate the daily peak. Where h - phase lies inside
/// (-12, 0) or (12, 24) the sine is negative, the clamped term is +0 and
/// the level is exactly `base`, so sin and the power are skipped there; a
/// 1e-6 h margin leaves the zero crossings, where rounding could decide
/// the sign, to the full formula. The power is s * sqrt(s), which differs
/// from pow(s, 1.5) by at most one double ulp; the float cast of each
/// sample absorbs that, so the series equal the pow formula's bit for bit
/// on every trace the tests compare (AzureTrace.SeriesMatchReferenceFormula*
/// and the scale-labelled test_trace_azure_scale, which covers every
/// sample of the perfbench traces at seeds 1-3).
double diurnal_level(const UtilModel& m, double hours_of_day) {
  constexpr double kMargin = 1e-6;
  const double d = hours_of_day - m.phase_hours;
  if ((d > -12.0 + kMargin && d < -kMargin) ||
      (d > 12.0 + kMargin && d < 24.0 - kMargin)) {
    return m.base;
  }
  const double s = std::max(0.0, std::sin(2.0 * std::numbers::pi * d / 24.0));
  if (s == 0.0) return m.base;
  return m.base + m.diurnal_amp * (s * std::sqrt(s));
}

float sample_interval(const UtilModel& m, double hours_of_day, bool in_burst,
                      double burst_level, util::Rng& rng) {
  double u = diurnal_level(m, hours_of_day);
  if (in_burst) u = std::max(u, burst_level);
  // Rare near-saturation spikes (cron, GC, load flaps). The trace records
  // the per-interval *maximum*, which amplifies such transients.
  if (rng.u01() < m.severe_prob) {
    u = std::max(u, rng.uniform(0.85, 1.0));
  }
  u += rng.normal(0.0, m.noise_sigma);
  return static_cast<float>(std::clamp(u, 0.0, 1.0));
}

}  // namespace

double AzureTraceGenerator::draw_arrival(util::Rng& rng,
                                         VmRecord& record) const {
  // Class label.
  const double class_draw = rng.u01();
  if (class_draw < config_.interactive_share) {
    record.workload = hv::WorkloadClass::Interactive;
  } else if (class_draw < config_.interactive_share + config_.delay_insensitive_share) {
    record.workload = hv::WorkloadClass::DelayInsensitive;
  } else {
    record.workload = hv::WorkloadClass::Unknown;
  }

  // Size, independent of utilization (Fig. 7 finds no correlation).
  std::array<double, kSizeMenu.size()> weights{};
  for (std::size_t i = 0; i < kSizeMenu.size(); ++i) weights[i] = kSizeMenu[i].weight;
  const SizeOption& size = kSizeMenu[rng.weighted_index(weights)];
  record.vcpus = size.vcpus;
  record.memory_mib = size.memory_gib * 1024.0;
  record.disk_bw_mbps = 50.0 + 20.0 * size.vcpus;
  record.net_bw_mbps = 500.0 + 125.0 * size.vcpus;

  // Lifetime & arrival cohort (see AzureTraceConfig).
  const double min_hours = config_.min_lifetime.seconds() / 3600.0;
  const double max_hours = config_.duration.seconds() / 3600.0;
  double start_hours = 0.0;
  double lifetime_hours = max_hours;
  const double cohort = rng.u01();
  if (cohort < config_.persistent_share) {
    // Always-on base load: full horizon.
  } else if (cohort < config_.persistent_share + config_.diurnal_share) {
    // Business-hours cohort: short-lived, arrivals clustered mid-day.
    const double diurnal_max =
        std::min(max_hours, config_.diurnal_max_lifetime.seconds() / 3600.0);
    lifetime_hours = std::min(
        diurnal_max, rng.bounded_pareto(min_hours, diurnal_max, 1.3));
    const auto days = std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                                    max_hours / 24.0));
    const double day = static_cast<double>(rng.uniform_int(0, days - 1));
    const double hour_of_day =
        std::clamp(rng.normal(config_.diurnal_peak_hour,
                              config_.diurnal_spread_hours),
                   0.0, 23.0);
    start_hours = std::clamp(day * 24.0 + hour_of_day, 0.0,
                             max_hours - lifetime_hours);
  } else {
    // Background churn: heavy-tailed lifetimes, uniform arrivals.
    lifetime_hours =
        std::min(max_hours, rng.bounded_pareto(min_hours, max_hours, 1.1));
    start_hours = rng.uniform(0.0, max_hours - lifetime_hours);
  }
  record.start = sim::SimTime::from_hours(start_hours);
  record.end = sim::SimTime::from_hours(start_hours + lifetime_hours);
  return start_hours;
}

ArrivalStub AzureTraceGenerator::arrival_of(std::uint64_t vm_id) const {
  util::Rng rng = util::Rng::keyed(config_.seed, vm_id);
  VmRecord record;
  record.id = vm_id;
  draw_arrival(rng, record);
  return {record.id, record.start, record.end, record.vcpus,
          record.memory_mib};
}

VmRecord AzureTraceGenerator::generate_vm(std::uint64_t vm_id) const {
  util::Rng rng = util::Rng::keyed(config_.seed, vm_id);
  VmRecord record;
  record.id = vm_id;
  // The series model continues on the same rng the arrival draws consumed
  // from — the draw sequence is identical to the pre-split generator, so
  // traces (and every golden pinned on them) are bit-identical.
  const double start_hours = draw_arrival(rng, record);

  // Utilization series.
  const UtilModel model = sample_model(record.workload, rng);
  const auto samples = static_cast<std::size_t>(
      std::max<std::int64_t>(1, record.lifetime().micros() /
                                    kTraceInterval.micros()));
  std::vector<float> series;
  series.reserve(samples);
  bool in_burst = false;
  double burst_level = 0.0;
  const double exit_prob = 1.0 / std::max(1.0, model.burst_mean_len);
  // Hour of day by whole-day wraps: x grows with i, and x - 24*days is
  // exact for x in [24*days, 24*(days + 1)), so it equals fmod(x, 24).
  double days = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    if (in_burst) {
      if (rng.u01() < exit_prob) in_burst = false;
    } else if (rng.u01() < model.burst_prob) {
      in_burst = true;
      burst_level = rng.uniform(model.base, model.burst_hi);
    }
    const double x = start_hours + static_cast<double>(i) * 5.0 / 60.0;
    while (x >= 24.0 * (days + 1.0)) days += 1.0;
    const double hours_of_day = x - 24.0 * days;
    series.push_back(
        sample_interval(model, hours_of_day, in_burst, burst_level, rng));
  }
  record.cpu = UtilizationSeries(std::move(series));
  return record;
}

std::vector<VmRecord> AzureTraceGenerator::generate() const {
  std::vector<VmRecord> records(config_.vm_count);
  util::parallel_for(config_.vm_count, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      records[i] = generate_vm(static_cast<std::uint64_t>(i));
    }
  });
  return records;
}

}  // namespace deflate::trace
