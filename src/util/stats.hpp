// Streaming and batch statistics used by the feasibility analysis and the
// benchmark harnesses (box plots, percentiles, histograms).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace deflate::util {

/// Welford single-pass mean/variance with min/max tracking.
class RunningStats {
 public:
  void push(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linear-interpolated quantile of a *sorted* sequence, q in [0, 1].
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// quantile_sorted's value for the sorted order of `values`, found by
/// selection instead of a full sort; reorders `values`.
[[nodiscard]] double quantile_in_place(std::span<double> values, double q);

/// Convenience: copies and evaluates one quantile.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Five-number summary for box plots (Figs 5-12 are box plots in the paper).
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  std::size_t count = 0;

  /// Computes the summary; returns all-zero stats for empty input.
  static BoxStats from(std::span<const double> values);
};

/// Common percentile bundle for latency reporting (Figs 16, 18, 19).
struct Summary {
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;

  static Summary from(std::span<const double> values);
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins so mass is never silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count_at(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;
  /// Fraction of samples with value < x (piecewise-constant CDF).
  [[nodiscard]] double cdf(double x) const noexcept;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace deflate::util
