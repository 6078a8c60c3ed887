// Result reporting: the metric catalog (names and units, the same lists
// BENCHMARK.json declares), the final JSON line, and the host record every
// result carries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run (--trace 0), on every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by every traced run (--trace 1), on every workload.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for span files and capture logs.
  std::string out_dir = ".";
  /// Commit or source-tree identity, recorded with the result.
  std::string source_id = "unknown";
  /// The CPU the process is pinned to (-1: not pinned).
  int cpu = -1;
};

/// One invocation's result: the metrics plus the correctness verdict.
class Result {
 public:
  /// Records a metric; the unit must match the catalog entry.
  void set(const std::string& name, double value);
  /// Marks the output checks failed, with a reason for the log.
  void fail(const std::string& reason);
  /// Prints a measured value that is not part of the JSON result.
  static void info(const std::string& name, double value,
                   const std::string& unit);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

  /// Prints "metric name = value unit" lines, the check verdicts and, last,
  /// the one-line JSON result. Every catalog metric of the run kind must
  /// have been set; a missing one fails the run.
  void print(bool trace);

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> failures_;
};

/// One-line JSON record of the host, build and inputs.
[[nodiscard]] std::string host_record(const RunOptions& options);

/// Pins the calling thread, and every thread it creates afterwards, to the
/// highest-numbered CPU it may run on; returns that CPU, or -1 when the
/// affinity cannot be set. On a virtualized box, threads handing work to
/// each other across vCPUs pay host-scheduled wakeups (seen as steal time)
/// that swing latencies run to run; one CPU keeps every handoff local.
int pin_to_one_cpu();
/// Gives the calling thread back every CPU it could use before
/// pin_to_one_cpu().
void unpin_cpus();

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();
/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] double process_cpu_seconds();

/// Seconds since `start` on the steady clock.
[[nodiscard]] double seconds_since(std::int64_t start_ns);
[[nodiscard]] std::int64_t steady_now_ns();

}  // namespace perfbench
