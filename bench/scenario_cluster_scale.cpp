// Scenario: placement throughput at fleet scale — one shard vs routed
// shards at increasing shard counts.
//
// Each configuration owns an identical 10k fleet, is warmed to ~50% CPU
// with the same seeded arrival stream, then runs a steady-state churn of
// place+remove pairs. A placement picks inside one shard's id range
// through that shard's selection index; more shards add an O(shards)
// routing step and shrink each shard's index.
//
//   $ ./build/bench_scenario_cluster_scale            # full 10k fleet
//   $ DEFLATE_BENCH_SCALE=0.1 ./build/bench_...       # quick smoke
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/sharded_manager.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace deflate;

hv::VmSpec churn_spec(util::Rng& rng, std::uint64_t id) {
  static const int kCores[] = {4, 8, 8, 16, 24};
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm";
  spec.vcpus = kCores[rng.uniform_int(0, 4)];
  spec.memory_mib = spec.vcpus * 2048.0;
  spec.disk_bw_mbps = 0.0;
  spec.net_bw_mbps = 0.0;
  spec.deflatable = rng.bernoulli(0.5);
  spec.priority =
      spec.deflatable ? 0.2 * static_cast<double>(rng.uniform_int(1, 4)) : 1.0;
  return spec;
}

struct RunResult {
  double fill_seconds = 0.0;
  double churn_seconds = 0.0;
  double placements_per_second = 0.0;
  std::uint64_t rejections = 0;
};

RunResult run(cluster::ClusterManagerBase& manager, std::size_t servers,
              std::size_t churn_ops, double fill_fraction) {
  util::Rng rng(7);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;

  using clock = std::chrono::steady_clock;
  const auto fill_start = clock::now();
  const double target_cores =
      fill_fraction * 48.0 * static_cast<double>(servers);
  double committed = 0.0;
  while (committed < target_cores) {
    const hv::VmSpec spec = churn_spec(rng, next_id++);
    if (manager.place_vm(spec).ok()) {
      live.push_back(spec.id);
      committed += static_cast<double>(spec.vcpus);
    }
  }
  const auto churn_start = clock::now();

  // Steady state: replace a random resident VM with a fresh arrival. One
  // placement (and one departure) per op; views flush per 64-op "tick".
  for (std::size_t op = 0; op < churn_ops; ++op) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    manager.remove_vm(live[pick]);
    live[pick] = live.back();
    live.pop_back();
    const hv::VmSpec spec = churn_spec(rng, next_id++);
    if (manager.place_vm(spec).ok()) live.push_back(spec.id);
    if (op % 64 == 0) manager.flush_views();
  }
  const auto churn_end = clock::now();

  const auto seconds = [](auto from, auto to) {
    return std::chrono::duration<double>(to - from).count();
  };
  RunResult result;
  result.fill_seconds = seconds(fill_start, churn_start);
  result.churn_seconds = seconds(churn_start, churn_end);
  result.placements_per_second =
      result.churn_seconds > 0.0
          ? static_cast<double>(churn_ops) / result.churn_seconds
          : 0.0;
  result.rejections = manager.stats().rejections;
  return result;
}

void shard_sweep() {
  const std::size_t servers = bench::scaled(10000);
  const std::size_t churn_ops = bench::scaled(4000);
  std::cout << "-- shard sweep --\n"
            << "fleet: " << servers << " servers (48 CPUs / 128 GB), warm to "
            << "50% CPU, then " << churn_ops << " place+remove churn ops\n\n";

  cluster::ClusterConfig fleet;
  fleet.server_count = servers;
  fleet.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};

  struct Case {
    std::string label;
    std::size_t shards;  // 0 = one shard, the flat fleet
  };
  const std::vector<Case> cases = {
      {"flat scan", 0},  {"sharded x2", 2},  {"sharded x4", 4},
      {"sharded x8", 8}, {"sharded x16", 16}, {"sharded x32", 32},
  };

  util::Table table({"configuration", "fill_s", "churn_s", "placements_per_s",
                     "speedup_vs_flat", "rejections"});
  double flat_throughput = 0.0;
  for (const Case& c : cases) {
    cluster::ShardedClusterConfig config;
    config.cluster = fleet;
    config.shard_count = c.shards;  // <= 1 builds the flat fleet
    std::unique_ptr<cluster::ClusterManagerBase> manager =
        cluster::make_cluster_manager(config);
    const RunResult result = run(*manager, servers, churn_ops, 0.5);
    if (c.shards == 0) flat_throughput = result.placements_per_second;
    const double speedup = flat_throughput > 0.0
                               ? result.placements_per_second / flat_throughput
                               : 0.0;
    table.add_row({c.label, util::format_double(result.fill_seconds, 2),
                   util::format_double(result.churn_seconds, 2),
                   util::format_double(result.placements_per_second, 0),
                   util::format_double(speedup, 2),
                   std::to_string(result.rejections)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_header(
      "Scenario: fleet-scale placement throughput (sharded)",
      "sharding turns the O(fleet) placement scan into O(fleet/shards); "
      "the in-shard scan reads the SoA scan table's cached columns and the "
      "tick-barrier flush refreshes only dirty servers");

  shard_sweep();

  std::cout << "\nPower-of-two-choices routing consults two cached shard "
               "aggregates per placement;\nonly the chosen shard runs the "
               "exact fitness scan, so the per-placement cost\ndrops from "
               "O(fleet) to O(fleet/shards) + O(shards).\n";
  return 0;
}
