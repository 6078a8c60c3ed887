// Latency statistics and failed-share accounting for the benchmark.
//
// A timing is reported as its median plus the highest percentile of a fixed
// ladder that still has at least ten samples beyond it, together with the
// sample count: a p99 over 200 samples is two samples, not a tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/admission.hpp"

namespace perfbench {

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile (q in [0, 100]) of ascending `sorted`; 0 when
/// empty.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Samples strictly beyond the nearest-rank q-th percentile of `count`.
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double q);

/// Whether the q-th percentile of `count` samples has at least
/// kMinTailSamples beyond it.
[[nodiscard]] bool percentile_supported(std::size_t count, double q);

struct LatencySummary {
  std::size_t count = 0;
  double median = 0.0;
  /// Highest percentile of {90, 99, 99.9, 99.99} with kMinTailSamples
  /// beyond it; 0 when even p90 lacks them.
  double tail_percentile = 0.0;
  double tail = 0.0;
};

[[nodiscard]] LatencySummary summarize(std::vector<double> samples);

/// "p50 12.3 / p99.9 45.6 us (n=20000)".
[[nodiscard]] std::string describe(const LatencySummary& summary,
                                   const std::string& unit);

/// Median of `values` (average of the middle pair); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Outcome tally of one admission-service session. A request fails when it
/// was refused (capacity rejection or expired deferral), answered with an
/// Error frame, or never got a final decision (dropped connection). Only
/// the last two are protocol failures; refusals are answers the service
/// was built to give, but they count against the offered load.
struct RequestTally {
  std::uint64_t sent = 0;
  std::uint64_t admitted = 0;
  std::uint64_t refused = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  /// Final decisions whose (status, reason) pair is not one the protocol
  /// defines for a final answer.
  std::uint64_t invalid = 0;

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return refused + errors + lost + invalid;
  }
  [[nodiscard]] std::uint64_t protocol_failures() const noexcept {
    return errors + lost + invalid;
  }
  [[nodiscard]] double failed_pct() const noexcept;
  RequestTally& operator+=(const RequestTally& other) noexcept;
};

/// True for the (status, reason) pairs a final decision may carry.
[[nodiscard]] bool valid_final_decision(
    const deflate::cluster::AdmissionDecision& decision) noexcept;

/// Tallies `sent` requests against the latest decision per request id;
/// `error_frames` counts requests answered with an Error frame. A request
/// whose latest decision is still Deferred, or that has none, is lost.
[[nodiscard]] RequestTally tally_requests(
    std::uint64_t sent,
    const std::map<std::uint64_t, deflate::cluster::AdmissionDecision>&
        decisions,
    std::uint64_t error_frames);

/// Share in percent; 0 when `total` is 0.
[[nodiscard]] double share_pct(std::uint64_t part, std::uint64_t total) noexcept;

}  // namespace perfbench
