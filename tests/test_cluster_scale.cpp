// Cluster-scale stress test (ctest label: scale): a deterministic seeded
// churn of placements / departures / deflation-inducing arrivals / server
// revocations / restorations against a 10,000-server fleet, run on one
// shard and on routed shards.
//
//  * a one-shard ShardedClusterConfig must reproduce the ClusterConfig-
//    built flat manager's end state exactly (one shard is never routed);
//  * larger shard counts may diverge (routing is approximate and shards
//    fragment capacity) but only boundedly: same fleet, same workload,
//    end-state utilization within a few percent.
#include "cluster/sharded_manager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace res = deflate::res;
namespace util = deflate::util;

namespace {

constexpr std::size_t kFleet = 10000;
constexpr std::uint64_t kSeed = 2020;

cl::ClusterConfig fleet_config() {
  cl::ClusterConfig config;
  config.server_count = kFleet;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  return config;
}

hv::VmSpec churn_spec(util::Rng& rng, std::uint64_t id) {
  // Mostly mid-size VMs, occasionally a 32-core on-demand arrival that no
  // single server fits in free capacity once the fleet is warm — those
  // exercise the deflation path of the churn.
  static const int kCores[] = {8, 16, 16, 24, 32};
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = kCores[rng.uniform_int(0, 4)];
  spec.memory_mib = spec.vcpus * 2048.0;
  spec.disk_bw_mbps = 0.0;
  spec.net_bw_mbps = 0.0;
  spec.deflatable = rng.bernoulli(0.6);
  spec.priority =
      spec.deflatable ? 0.2 * static_cast<double>(rng.uniform_int(1, 4)) : 1.0;
  return spec;
}

struct ChurnOutcome {
  res::ResourceVector committed;
  res::ResourceVector allocated;
  std::uint64_t placements = 0;
  std::uint64_t rejections = 0;
  std::uint64_t revocation_kills = 0;
  std::vector<double> per_server_committed_cpu;
};

/// Drives the same seeded place/deflate/revoke/restore churn against any
/// manager. The rng draw sequence is identical across managers as long as
/// they accept/reject identically; once decisions diverge (shard_count >
/// 1) the workloads diverge too — the comparison below bounds the effect.
ChurnOutcome run_churn(cl::ClusterManagerBase& manager) {
  util::Rng rng(kSeed);
  std::vector<std::uint64_t> live;
  std::vector<std::size_t> revoked;
  std::uint64_t next_id = 1;

  const auto place = [&](const hv::VmSpec& spec) -> bool {
    if (!manager.place_vm(spec).ok()) return false;
    live.push_back(spec.id);
    return true;
  };

  // Warm the fleet to ~50% CPU so churn runs under realistic pressure
  // (committed cores tracked in the driver; querying the manager per
  // placement would be O(fleet) a call).
  const double target_cores = 0.5 * 48.0 * static_cast<double>(kFleet);
  double committed_cores = 0.0;
  while (committed_cores < target_cores) {
    const hv::VmSpec spec = churn_spec(rng, next_id++);
    if (place(spec)) committed_cores += static_cast<double>(spec.vcpus);
  }

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.u01();
    if (roll < 0.40 || live.empty()) {
      place(churn_spec(rng, next_id++));
    } else if (roll < 0.75) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      manager.remove_vm(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else if (roll < 0.85) {
      const auto server = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kFleet) - 1));
      // Keep at most ~2% of the fleet dark so migrations can land.
      if (manager.server_active(server) && revoked.size() < kFleet / 50) {
        manager.revoke_server(server);
        revoked.push_back(server);
        std::erase_if(live, [&](std::uint64_t id) {
          return manager.find_vm(id) == nullptr;
        });
      }
    } else if (roll < 0.95) {
      if (!revoked.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(revoked.size()) - 1));
        manager.restore_server(revoked[pick]);
        revoked[pick] = revoked.back();
        revoked.pop_back();
      }
    } else {
      manager.flush_views();  // tick boundary, as the simulator would
    }
  }

  ChurnOutcome outcome;
  outcome.committed = manager.total_committed();
  outcome.allocated = manager.total_allocated();
  outcome.placements = manager.stats().placements;
  outcome.rejections = manager.stats().rejections;
  outcome.revocation_kills = manager.stats().revocation_kills;
  outcome.per_server_committed_cpu.reserve(kFleet);
  res::ResourceVector allocated_sum;
  for (std::size_t s = 0; s < kFleet; ++s) {
    outcome.per_server_committed_cpu.push_back(manager.host(s).committed().cpu());
    allocated_sum += manager.host(s).allocated();
  }
  // Accounting invariant under stress: aggregate == per-server sum.
  for (const res::Resource r : res::all_resources) {
    EXPECT_DOUBLE_EQ(outcome.allocated[r], allocated_sum[r]);
  }
  return outcome;
}

}  // namespace

TEST(ClusterScale, ShardedFleetMatchesFlatAtTenThousandServers) {
  cl::ClusterManager flat(fleet_config());
  const ChurnOutcome flat_outcome = run_churn(flat);
  EXPECT_GT(flat_outcome.placements, 10000U);
  EXPECT_GT(flat_outcome.committed.cpu(), 0.4 * 48.0 * kFleet);

  // --- degenerate case: one shard, identical decisions --------------------
  {
    cl::ShardedClusterConfig config;
    config.cluster = fleet_config();
    config.shard_count = 1;
    cl::ClusterManager sharded(config);
    const ChurnOutcome outcome = run_churn(sharded);
    EXPECT_EQ(outcome.placements, flat_outcome.placements);
    EXPECT_EQ(outcome.rejections, flat_outcome.rejections);
    EXPECT_EQ(outcome.revocation_kills, flat_outcome.revocation_kills);
    for (const res::Resource r : res::all_resources) {
      EXPECT_DOUBLE_EQ(outcome.committed[r], flat_outcome.committed[r]);
      EXPECT_DOUBLE_EQ(outcome.allocated[r], flat_outcome.allocated[r]);
    }
    // Decision-for-decision identical: every server ended with the same
    // committed load, not just the fleet aggregate.
    for (std::size_t s = 0; s < kFleet; ++s) {
      ASSERT_DOUBLE_EQ(outcome.per_server_committed_cpu[s],
                       flat_outcome.per_server_committed_cpu[s])
          << "server " << s;
    }
  }

  // --- sharded cases: bounded divergence -----------------------------------
  for (const std::size_t shards : {16UL, 64UL}) {
    cl::ShardedClusterConfig config;
    config.cluster = fleet_config();
    config.shard_count = shards;
    cl::ClusterManager sharded(config);
    const ChurnOutcome outcome = run_churn(sharded);
    const double flat_cpu = flat_outcome.committed.cpu();
    const double sharded_cpu = outcome.committed.cpu();
    EXPECT_NEAR(sharded_cpu, flat_cpu, 0.08 * flat_cpu)
        << shards << " shards: end-state fleet utilization diverged";
    // Routing must not tank admission: the sharded fleet admits within a
    // few percent of the flat manager's placements.
    EXPECT_GT(outcome.placements,
              static_cast<std::uint64_t>(
                  0.95 * static_cast<double>(flat_outcome.placements)))
        << shards << " shards";
  }
}
