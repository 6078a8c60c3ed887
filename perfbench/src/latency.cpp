#include "latency.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank q-th percentile among `count` samples.
std::size_t rank_index(std::size_t count, double q) {
  // The epsilon keeps decimal percentiles such as 99.9 from rounding up a
  // rank that is exact in decimal (99.9% of 10,000 is rank 9,990).
  const double rank =
      std::ceil(q / 100.0 * static_cast<double>(count) - 1e-9);
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return std::min(index, count - 1);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_index(sorted.size(), q)];
}

std::size_t samples_beyond(std::size_t count, double q) {
  if (count == 0) return 0;
  return count - 1 - rank_index(count, q);
}

bool percentile_supported(std::size_t count, double q) {
  return samples_beyond(count, q) >= kMinTailSamples;
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.median = percentile_sorted(samples, 50.0);
  for (const double q : {99.99, 99.9, 99.0, 90.0}) {
    if (percentile_supported(samples.size(), q)) {
      summary.tail_percentile = q;
      summary.tail = percentile_sorted(samples, q);
      break;
    }
  }
  return summary;
}

std::string describe(const LatencySummary& summary, const std::string& unit) {
  char buffer[160];
  if (summary.tail_percentile > 0.0) {
    std::snprintf(buffer, sizeof(buffer), "p50 %.3f / p%g %.3f %s (n=%zu)",
                  summary.median, summary.tail_percentile, summary.tail,
                  unit.c_str(), summary.count);
  } else {
    std::snprintf(buffer, sizeof(buffer), "p50 %.3f %s (n=%zu, no tail)",
                  summary.median, unit.c_str(), summary.count);
  }
  return buffer;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double share_pct(std::uint64_t part, std::uint64_t total) noexcept {
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(total);
}

double RequestTally::failed_pct() const noexcept {
  return share_pct(failed(), sent);
}

RequestTally& RequestTally::operator+=(const RequestTally& other) noexcept {
  sent += other.sent;
  admitted += other.admitted;
  refused += other.refused;
  errors += other.errors;
  lost += other.lost;
  invalid += other.invalid;
  return *this;
}

bool valid_final_decision(
    const deflate::cluster::AdmissionDecision& decision) noexcept {
  using Status = deflate::cluster::AdmissionDecision::Status;
  using Reason = deflate::cluster::AdmissionDecision::Reason;
  switch (decision.status) {
    case Status::Placed:
    case Status::PlacedDeflated:
      return decision.reason == Reason::Admitted;
    case Status::Rejected:
      return decision.reason == Reason::CapacityRejected ||
             decision.reason == Reason::DeadlineExpired;
    case Status::Deferred: return false;
  }
  return false;
}

RequestTally tally_requests(
    std::uint64_t sent,
    const std::map<std::uint64_t, deflate::cluster::AdmissionDecision>&
        decisions,
    std::uint64_t error_frames) {
  using Status = deflate::cluster::AdmissionDecision::Status;
  RequestTally tally;
  tally.sent = sent;
  tally.errors = std::min(error_frames, sent);
  std::uint64_t answered = 0;
  for (const auto& [id, decision] : decisions) {
    (void)id;
    if (decision.status == Status::Deferred) continue;  // never resolved
    ++answered;
    if (!valid_final_decision(decision)) {
      ++tally.invalid;
    } else if (decision.admitted()) {
      ++tally.admitted;
    } else {
      ++tally.refused;
    }
  }
  const std::uint64_t accounted = answered + tally.errors;
  tally.lost = sent > accounted ? sent - accounted : 0;
  return tally;
}

}  // namespace perfbench
