// Unit tests of the benchmark's latency statistics and failed-share
// accounting.
#include <gtest/gtest.h>

#include <numeric>

#include "latency.hpp"

namespace perfbench {
namespace {

using deflate::cluster::AdmissionDecision;
using Status = AdmissionDecision::Status;
using Reason = AdmissionDecision::Reason;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

AdmissionDecision decision(Status status, Reason reason) {
  AdmissionDecision d;
  d.status = status;
  d.reason = reason;
  return d;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> values = one_to(100);
  EXPECT_EQ(percentile_sorted(values, 50.0), 50.0);
  EXPECT_EQ(percentile_sorted(values, 99.0), 99.0);
  EXPECT_EQ(percentile_sorted(values, 100.0), 100.0);
  EXPECT_EQ(percentile_sorted(values, 0.0), 1.0);
  EXPECT_EQ(percentile_sorted({}, 50.0), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_FALSE(percentile_supported(1000, 99.9));
  EXPECT_TRUE(percentile_supported(10000, 99.9));
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Summarize, ReportsMedianHighestSupportedTailAndCount) {
  const LatencySummary s = summarize(one_to(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.median, 500.0);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.tail, 990.0);

  const LatencySummary big = summarize(one_to(10000));
  EXPECT_EQ(big.tail_percentile, 99.9);
  EXPECT_EQ(big.tail, 9990.0);
}

TEST(Summarize, UnsortedInputAndTooFewSamples) {
  std::vector<double> values = one_to(200);
  std::reverse(values.begin(), values.end());
  const LatencySummary s = summarize(values);
  EXPECT_EQ(s.median, 100.0);
  EXPECT_EQ(s.tail_percentile, 90.0);  // p99 would have 2 samples beyond

  const LatencySummary few = summarize(one_to(5));
  EXPECT_EQ(few.count, 5u);
  EXPECT_EQ(few.tail_percentile, 0.0);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Tally, CountsRefusalsErrorsAndLostRequests) {
  std::map<std::uint64_t, AdmissionDecision> decisions;
  decisions[1] = decision(Status::Placed, Reason::Admitted);
  decisions[2] = decision(Status::PlacedDeflated, Reason::Admitted);
  decisions[3] = decision(Status::Rejected, Reason::CapacityRejected);
  decisions[4] = decision(Status::Rejected, Reason::DeadlineExpired);
  decisions[5] = decision(Status::Deferred, Reason::PriceDeferred);
  // Request 6 never got an answer.
  const RequestTally tally = tally_requests(6, decisions, 0);
  EXPECT_EQ(tally.sent, 6u);
  EXPECT_EQ(tally.admitted, 2u);
  EXPECT_EQ(tally.refused, 2u);
  EXPECT_EQ(tally.lost, 2u);
  EXPECT_EQ(tally.errors, 0u);
  EXPECT_EQ(tally.protocol_failures(), 2u);
  EXPECT_EQ(tally.failed(), 4u);
  EXPECT_DOUBLE_EQ(tally.failed_pct(), 100.0 * 4.0 / 6.0);
}

TEST(Tally, ErrorFramesAndInvalidPairsAreProtocolFailures) {
  std::map<std::uint64_t, AdmissionDecision> decisions;
  decisions[1] = decision(Status::Placed, Reason::CapacityRejected);
  decisions[2] = decision(Status::Rejected, Reason::Admitted);
  const RequestTally tally = tally_requests(3, decisions, 1);
  EXPECT_EQ(tally.invalid, 2u);
  EXPECT_EQ(tally.errors, 1u);
  EXPECT_EQ(tally.lost, 0u);
  EXPECT_EQ(tally.protocol_failures(), 3u);
  EXPECT_EQ(tally.refused, 0u);
}

TEST(Tally, AllAdmittedIsNoFailureAndSumsAdd) {
  std::map<std::uint64_t, AdmissionDecision> decisions;
  decisions[1] = decision(Status::Placed, Reason::Admitted);
  RequestTally tally = tally_requests(1, decisions, 0);
  EXPECT_EQ(tally.failed(), 0u);
  EXPECT_EQ(tally.failed_pct(), 0.0);
  tally += tally_requests(1, {}, 0);
  EXPECT_EQ(tally.sent, 2u);
  EXPECT_EQ(tally.lost, 1u);
  EXPECT_DOUBLE_EQ(tally.failed_pct(), 50.0);
  EXPECT_EQ(RequestTally{}.failed_pct(), 0.0);
}

TEST(Tally, ValidFinalDecisionPairs) {
  EXPECT_TRUE(valid_final_decision(decision(Status::Placed, Reason::Admitted)));
  EXPECT_TRUE(valid_final_decision(
      decision(Status::Rejected, Reason::DeadlineExpired)));
  EXPECT_FALSE(valid_final_decision(
      decision(Status::Deferred, Reason::PriceDeferred)));
  EXPECT_FALSE(valid_final_decision(
      decision(Status::PlacedDeflated, Reason::CapacityDeferred)));
}

TEST(Share, Percent) {
  EXPECT_EQ(share_pct(1, 4), 25.0);
  EXPECT_EQ(share_pct(3, 0), 0.0);
}

}  // namespace
}  // namespace perfbench
