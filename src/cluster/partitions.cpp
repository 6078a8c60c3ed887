#include "cluster/partitions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deflate::cluster {

ClusterPartitions::ClusterPartitions(std::size_t server_count,
                                     const std::vector<double>& pool_weights) {
  if (pool_weights.empty() || server_count < pool_weights.size()) {
    throw std::invalid_argument(
        "ClusterPartitions: need at least one server per pool");
  }
  double total = 0.0;
  for (const double w : pool_weights) total += std::max(0.0, w);
  if (total <= 0.0) {
    throw std::invalid_argument("ClusterPartitions: weights must be positive");
  }

  // Give every pool one server up front, then distribute the rest by
  // largest remainder so the split tracks the weights.
  const std::size_t pools = pool_weights.size();
  std::vector<std::size_t> counts(pools, 1);
  std::size_t assigned = pools;
  std::vector<double> fractional(pools);
  for (std::size_t k = 0; k < pools; ++k) {
    fractional[k] =
        std::max(0.0, pool_weights[k]) / total * static_cast<double>(server_count);
  }
  while (assigned < server_count) {
    std::size_t best = 0;
    double best_deficit = -1e300;
    for (std::size_t k = 0; k < pools; ++k) {
      const double deficit = fractional[k] - static_cast<double>(counts[k]);
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = k;
      }
    }
    ++counts[best];
    ++assigned;
  }

  pools_.reserve(pools);
  std::size_t next = 0;
  for (std::size_t k = 0; k < pools; ++k) {
    pools_.push_back({next, next + counts[k]});
    next += counts[k];
  }
}

ClusterPartitions ClusterPartitions::single_pool(std::size_t server_count) {
  return ClusterPartitions({ServerRange{0, server_count}});
}

std::size_t pool_for_priority(bool deflatable, double priority,
                              std::size_t pool_count) noexcept {
  if (pool_count <= 1) return 0;
  if (!deflatable) return 0;
  // Deflatable pools 1..pool_count-1 split the (0,1] priority range evenly.
  const std::size_t deflatable_pools = pool_count - 1;
  const double clamped = std::clamp(priority, 0.0, 1.0);
  auto idx = static_cast<std::size_t>(clamped * static_cast<double>(deflatable_pools));
  idx = std::min(idx, deflatable_pools - 1);
  return 1 + idx;
}

}  // namespace deflate::cluster
