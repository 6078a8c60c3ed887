// Per-layer reporting shared by the traced runs: the always-on profiler
// rows (`sharded.*`, `cluster.*`) and the span aggregates, turned into the
// per-layer metrics of the catalog and into `layer ...` log lines.
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct ProfileRow {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  [[nodiscard]] double mean_us() const {
    return calls == 0 ? 0.0 : 1e6 * seconds / static_cast<double>(calls);
  }
};
using ProfileRows = std::unordered_map<std::string, ProfileRow>;

/// util::Profiler::snapshot() by phase name.
[[nodiscard]] ProfileRows profile_rows();
/// The row of `name` (zero when the phase never fired).
[[nodiscard]] ProfileRow row_of(const ProfileRows& rows,
                                const std::string& name);

using SpanStats = std::map<std::string, SpanRecorder::NameStats>;

/// The stats of `name` (empty when never recorded).
[[nodiscard]] SpanRecorder::NameStats stats_of(const SpanStats& stats,
                                               const std::string& name);
/// Nearest-rank q-th percentile of a span's durations, in nanoseconds.
[[nodiscard]] double percentile_ns(const SpanRecorder::NameStats& stats,
                                   double q);

/// Sets the `fleet.*`, `sharded.*`, `cluster.*` and `process.cpu_util`
/// metrics from an untraced run's profiler rows. `sharded`: the fleet's
/// outermost manager is the sharded scheduler.
void set_profile_metrics(const ProfileRows& rows, bool sharded,
                         double cpu_util, Result& result);

/// Sets every span-derived metric of the catalog (`manager.*`,
/// `admission.decide.*`, the `*.calls` counts); layers without spans read 0.
void set_span_metrics(const SpanStats& stats, Result& result);

/// One `layer <name>: ...` line per span name: calls, median, highest
/// supported percentile and count, total and self time (codec and trace
/// spans in ns, control in ms, the rest in us).
void print_layers(const SpanStats& stats);

}  // namespace perfbench
