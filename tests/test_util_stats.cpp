#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "trace/series.hpp"
#include "util/rng.hpp"

namespace du = deflate::util;

TEST(RunningStats, EmptyIsZero) {
  du::RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  du::RunningStats s;
  s.push(3.5);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  du::RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  du::Rng rng(99);
  du::RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.push(x);
    (i % 2 == 0 ? a : b).push(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  du::RunningStats a, b;
  a.push(1.0);
  a.push(2.0);
  const double mean_before = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(Quantile, ThrowsOnEmpty) {
  EXPECT_THROW((void)du::quantile(std::vector<double>{}, 0.5),
               std::invalid_argument);
}

TEST(Quantile, MedianOfOddCount) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(du::quantile(v, 0.5), 3.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(du::quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(du::quantile(v, 0.75), 7.5);
}

TEST(Quantile, ClampsOutOfRangeQ) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(du::quantile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(du::quantile(v, 1.5), 3.0);
}

TEST(Quantile, SelectionMatchesTheSortedValueBitForBit) {
  // quantile() and UtilizationSeries::percentile select instead of
  // sorting; they must return exactly quantile_sorted's value. Sizes 1, 2,
  // odd and even; "ties" draws from four values, so order statistics
  // repeat.
  du::Rng rng(3);
  for (const std::size_t n : {1U, 2U, 7U, 10U, 289U, 576U}) {
    for (const bool ties : {false, true}) {
      std::vector<float> samples(n);
      for (float& sample : samples) {
        sample = ties ? 0.25F * static_cast<float>(rng.uniform_int(0, 3))
                      : static_cast<float>(rng.u01());
      }
      const std::vector<double> values(samples.begin(), samples.end());
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const deflate::trace::UtilizationSeries series(samples);
      for (const double q : {0.0, 0.95, 1.0}) {
        const double expected = du::quantile_sorted(sorted, q);
        EXPECT_EQ(du::quantile(values, q), expected)
            << "n " << n << " ties " << ties << " q " << q;
        EXPECT_EQ(series.percentile(q), expected)
            << "n " << n << " ties " << ties << " q " << q;
      }
    }
  }
}

TEST(BoxStats, EmptyInput) {
  const auto b = du::BoxStats::from(std::vector<double>{});
  EXPECT_EQ(b.count, 0U);
  EXPECT_DOUBLE_EQ(b.median, 0.0);
}

TEST(BoxStats, OrderedQuartiles) {
  std::vector<double> v;
  for (int i = 100; i >= 0; --i) v.push_back(static_cast<double>(i));
  const auto b = du::BoxStats::from(v);
  EXPECT_DOUBLE_EQ(b.min, 0.0);
  EXPECT_DOUBLE_EQ(b.q1, 25.0);
  EXPECT_DOUBLE_EQ(b.median, 50.0);
  EXPECT_DOUBLE_EQ(b.q3, 75.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
  EXPECT_EQ(b.count, 101U);
}

TEST(Summary, PercentilesOrdered) {
  du::Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.exponential(1.0));
  const auto s = du::Summary::from(v);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_NEAR(s.mean, 1.0, 0.1);
  EXPECT_NEAR(s.p50, std::log(2.0), 0.1);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(du::Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(du::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsAndClamping) {
  du::Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // clamps into bin 0
  h.add(0.5);
  h.add(9.5);
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.total(), 4U);
  EXPECT_EQ(h.count_at(0), 2U);
  EXPECT_EQ(h.count_at(9), 2U);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, CdfMonotone) {
  du::Histogram h(0.0, 1.0, 20);
  du::Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.add(rng.u01());
  double prev = -1.0;
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    const double c = h.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(h.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf(1.0), 1.0);
  EXPECT_NEAR(h.cdf(0.5), 0.5, 0.03);
}

// Property sweep: BoxStats quantiles must agree with direct quantile() on
// random data of many sizes.
class BoxStatsProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxStatsProperty, MatchesQuantiles) {
  du::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v;
  const int n = 1 + GetParam() * 7;
  for (int i = 0; i < n; ++i) v.push_back(rng.lognormal(0.0, 1.5));
  const auto b = du::BoxStats::from(v);
  EXPECT_DOUBLE_EQ(b.q1, du::quantile(v, 0.25));
  EXPECT_DOUBLE_EQ(b.median, du::quantile(v, 0.5));
  EXPECT_DOUBLE_EQ(b.q3, du::quantile(v, 0.75));
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoxStatsProperty, ::testing::Range(1, 25));
