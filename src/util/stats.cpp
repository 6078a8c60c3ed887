#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deflate::util {

void RunningStats::push(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  sum_ += other.sum_;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

namespace {

/// Where quantile q of n sorted values falls: between the order
/// statistics idx and idx + 1, `frac` of the way to the second.
struct QuantilePosition {
  std::size_t idx = 0;
  double frac = 0.0;
};

QuantilePosition quantile_position(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("quantile of empty range");
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const auto idx = static_cast<std::size_t>(pos);
  return {idx, pos - static_cast<double>(idx)};
}

double interpolate(double lower, double upper, double frac) {
  return lower * (1.0 - frac) + upper * frac;
}

/// Selects the two order statistics around quantile q and interpolates
/// them in double. Widening float to double is exact and keeps the order,
/// so a float range gives the double copy's value bit for bit.
template <typename T>
double select_quantile(std::span<T> values, double q) {
  const QuantilePosition at = quantile_position(values.size(), q);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(at.idx);
  std::nth_element(values.begin(), nth, values.end());
  if (at.idx + 1 >= values.size()) return *nth;
  // Everything after nth is >= it, so the next order statistic is the
  // tail's minimum.
  return interpolate(*nth, *std::min_element(nth + 1, values.end()), at.frac);
}

}  // namespace

double quantile_sorted(std::span<const double> sorted, double q) {
  const QuantilePosition at = quantile_position(sorted.size(), q);
  if (at.idx + 1 >= sorted.size()) return sorted[sorted.size() - 1];
  return interpolate(sorted[at.idx], sorted[at.idx + 1], at.frac);
}

double quantile_in_place(std::span<double> values, double q) {
  return select_quantile(values, q);
}

double quantile_in_place(std::span<float> values, double q) {
  return select_quantile(values, q);
}

double quantile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  return quantile_in_place(copy, q);
}

BoxStats BoxStats::from(std::span<const double> values) {
  BoxStats out;
  if (values.empty()) return out;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  out.min = sorted.front();
  out.q1 = quantile_sorted(sorted, 0.25);
  out.median = quantile_sorted(sorted, 0.50);
  out.q3 = quantile_sorted(sorted, 0.75);
  out.max = sorted.back();
  out.count = sorted.size();
  return out;
}

Summary Summary::from(std::span<const double> values) {
  Summary out;
  if (values.empty()) return out;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const double v : sorted) sum += v;
  out.mean = sum / static_cast<double>(sorted.size());
  out.p50 = quantile_sorted(sorted, 0.50);
  out.p90 = quantile_sorted(sorted, 0.90);
  out.p95 = quantile_sorted(sorted, 0.95);
  out.p99 = quantile_sorted(sorted, 0.99);
  out.min = sorted.front();
  out.max = sorted.back();
  out.count = sorted.size();
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (bins == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram requires hi > lo and bins > 0");
  }
}

void Histogram::add(double x) noexcept {
  auto bin = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  bin = std::clamp<std::ptrdiff_t>(bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_lo(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

double Histogram::cdf(double x) const noexcept {
  if (total_ == 0) return 0.0;
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  const auto edge = static_cast<std::size_t>((x - lo_) / width_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < edge && i < counts_.size(); ++i) below += counts_[i];
  return static_cast<double>(below) / static_cast<double>(total_);
}

}  // namespace deflate::util
