#include "trace/series.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace deflate::trace {

float UtilizationSeries::at_time(sim::SimTime t) const {
  if (samples_.empty()) return 0.0F;
  const auto idx = static_cast<std::size_t>(
      std::max<std::int64_t>(0, t.micros() / interval_.micros()));
  return samples_[std::min(idx, samples_.size() - 1)];
}

double UtilizationSeries::fraction_above(double threshold) const noexcept {
  if (samples_.empty()) return 0.0;
  std::size_t above = 0;
  for (const float s : samples_) {
    if (s > threshold) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(samples_.size());
}

double UtilizationSeries::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  std::vector<float> scratch(samples_);
  return util::quantile_in_place(std::span<float>(scratch), q);
}

double UtilizationSeries::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const float s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double UtilizationSeries::peak() const noexcept {
  double peak = 0.0;
  for (const float s : samples_) peak = std::max(peak, static_cast<double>(s));
  return peak;
}

UtilizationSeries::Underallocation UtilizationSeries::underallocation(
    const std::vector<float>& allocation) const noexcept {
  Underallocation out;
  const std::size_t n = std::min(samples_.size(), allocation.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.used += samples_[i];
    out.lost += std::max(0.0F, samples_[i] - allocation[i]);
  }
  return out;
}

}  // namespace deflate::trace
