// Cluster partitioning by priority (§5.2.1): the cluster is split into
// priority pools and VMs are placed only on their pool's servers, bounding
// performance interference between priority classes. On-demand VMs get
// their own pool. Every pool is a contiguous id range: pool k owns
// [first_k, last_k), the ranges ascend and together cover [0, n).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace deflate::cluster {

/// The server ids [first, last).
struct ServerRange {
  std::size_t first = 0;
  std::size_t last = 0;

  [[nodiscard]] std::size_t size() const noexcept { return last - first; }
  friend bool operator==(const ServerRange&, const ServerRange&) = default;
};

class ClusterPartitions {
 public:
  /// `pool_weights[k]` is the expected share of committed resources for
  /// pool k ("the size of the different pools can be based on the typical
  /// workload mix"); every pool receives at least one server.
  ClusterPartitions(std::size_t server_count,
                    const std::vector<double>& pool_weights);

  /// Unpartitioned cluster: a single pool owning every server.
  static ClusterPartitions single_pool(std::size_t server_count);

  [[nodiscard]] std::size_t pool_count() const noexcept {
    return pools_.size();
  }
  /// The server ids of pool `k`.
  [[nodiscard]] ServerRange pool(std::size_t k) const { return pools_.at(k); }

 private:
  explicit ClusterPartitions(std::vector<ServerRange> pools)
      : pools_(std::move(pools)) {}

  std::vector<ServerRange> pools_;
};

/// Maps priorities to pools: pool 0 is on-demand; deflatable VMs map by
/// priority level (4 levels as in §7.1.2: 0.2 / 0.4 / 0.6 / 0.8).
[[nodiscard]] std::size_t pool_for_priority(bool deflatable, double priority,
                                            std::size_t pool_count) noexcept;

}  // namespace deflate::cluster
