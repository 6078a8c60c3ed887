// Shared sweep machinery for the cluster-level figures (20-22): baseline
// sizing per §7.1.2 (minimum feasible cluster found by simulation), then
// overcommitment produced by shrinking the server count. Sweep points run
// in parallel; each point constructs its own simulator (deterministic).
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "simcluster/cluster_sim.hpp"
#include "util/parallel.hpp"

namespace deflate::bench {

inline simcluster::SimConfig base_sim_config() {
  simcluster::SimConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  return config;
}

/// Server count that produces overcommitment `oc` relative to the baseline
/// (minimum-feasible) cluster of `baseline_servers`.
inline std::size_t servers_for(std::size_t baseline_servers, double oc) {
  const auto servers = static_cast<std::size_t>(
      std::floor(static_cast<double>(baseline_servers) / (1.0 + oc)));
  return std::max<std::size_t>(1, servers);
}

struct SweepCase {
  double overcommit = 0.0;
  simcluster::SimConfig config;
  simcluster::SimMetrics metrics;
};

/// Runs every case (in parallel) through a fresh trace-driven simulator.
inline void run_sweep(const std::vector<trace::VmRecord>& records,
                      std::vector<SweepCase>& cases) {
  util::parallel_for(cases.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      simcluster::TraceDrivenSimulator simulator(records, cases[i].config);
      cases[i].metrics = simulator.run();
    }
  });
}

inline const std::vector<int>& overcommit_levels() {
  static const std::vector<int> levels{0, 10, 20, 30, 40, 50, 60, 70};
  return levels;
}

}  // namespace deflate::bench
