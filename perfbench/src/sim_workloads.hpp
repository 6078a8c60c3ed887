// The `replay` and `market` workloads: trace-driven fleet simulations.
//
//   replay  a streaming Azure-like diurnal 24 h trace through
//           TraceDrivenSimulator(stream, config): admit-all admission,
//           4-shard power-of-two routing with more than 1,024 servers per
//           shard, serial placement, a Poisson spot market and instant
//           migration (the traced run also times the 2-thread pool);
//   market  a record-vector 72 h Azure-like trace through
//           TraceDrivenSimulator(records, config): a flat serial fleet,
//           three correlated spot markets with a regime shift at 28 h,
//           timed hybrid migration, bid-optimized admission and the
//           windowed controller every 6 h.
//
// The untraced run times whole simulations and reports the end-to-end
// metrics. The traced run replays the same inputs through the program's
// public functions in the benchmark's own event loop, recording a span
// around every call into a layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "simcluster/cluster_sim.hpp"

namespace perfbench {

/// Registry names of the timed admission policies: the builtin admit-all
/// and bid-optimized decisions, with each evaluation's wall time appended
/// to the current decision sink. Registered by
/// register_timed_admission_policies(); decisions are the builtins' own.
inline constexpr const char* kTimedAdmitAll = "perfbench-timed-admit-all";
inline constexpr const char* kTimedBidOpt = "perfbench-timed-bid-opt";

/// Idempotent.
void register_timed_admission_policies();

/// Where the timed policies append evaluation latencies (microseconds);
/// null stops recording. One simulation at a time.
void set_decision_sink(std::vector<double>* sink);

/// FNV-1a digest over every SimMetrics field (doubles by bit pattern).
[[nodiscard]] std::uint64_t sim_digest(
    const deflate::simcluster::SimMetrics& metrics);

/// The workload's simulator configuration for a fleet of `servers` (the
/// seed only generates the trace).
[[nodiscard]] deflate::simcluster::SimConfig replay_config(std::size_t servers);
[[nodiscard]] deflate::simcluster::SimConfig market_config(std::size_t servers);

/// Runs `replay` or `market` (options.workload) and fills `result`.
void run_sim_workload(const RunOptions& options, Result& result);

}  // namespace perfbench
