// Micro-benchmark: end-to-end ClusterManager placement (flat vs sharded)
// at fleet scale, preemption-mode placement as residents per server grow,
// the SoA scan (scan_pick_host), the manager's indexed pick against that
// scan under churn, and the sharded tick flush.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "cluster/partitions.hpp"
#include "cluster/placement.hpp"
#include "cluster/sharded_manager.hpp"
#include "util/rng.hpp"

using deflate::res::ResourceVector;

// --- end-to-end manager placement: one shard vs routed shards -------------

namespace {

deflate::hv::VmSpec bench_spec(deflate::util::Rng& rng, std::uint64_t id) {
  deflate::hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm";
  spec.vcpus = static_cast<int>(rng.uniform_int(1, 4)) * 4;
  spec.memory_mib = spec.vcpus * 2048.0;
  spec.disk_bw_mbps = 0.0;
  spec.net_bw_mbps = 0.0;
  spec.deflatable = rng.bernoulli(0.5);
  spec.priority = spec.deflatable ? 0.4 : 1.0;
  return spec;
}

std::unique_ptr<deflate::cluster::ClusterManagerBase> make_manager(
    std::size_t servers, std::size_t shards) {
  deflate::cluster::ShardedClusterConfig config;
  config.cluster.server_count = servers;
  config.cluster.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.shard_count = shards;
  return deflate::cluster::make_cluster_manager(std::move(config));
}

}  // namespace

/// One steady-state placement (replace a resident VM with a fresh one) on
/// a fleet warmed to ~50% CPU. range(0) = servers, range(1) = shard count
/// (1 = the flat fleet). Fixed iteration counts keep the warm-up from being
/// re-run by the adaptive timer.
static void bench_manager_place(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  auto manager = make_manager(servers, shards);
  deflate::util::Rng rng(42);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  double committed = 0.0;
  const double target = 0.5 * 48.0 * static_cast<double>(servers);
  while (committed < target) {
    const auto spec = bench_spec(rng, next_id++);
    if (manager->place_vm(spec).ok()) {
      live.push_back(spec.id);
      committed += static_cast<double>(spec.vcpus);
    }
  }

  for (auto _ : state) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    manager->remove_vm(live[pick]);
    live[pick] = live.back();
    live.pop_back();
    const auto spec = bench_spec(rng, next_id++);
    if (manager->place_vm(spec).ok()) live.push_back(spec.id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bench_manager_place)
    ->Args({400, 1})
    ->Args({4000, 1})
    ->Args({10000, 1})
    ->Args({10000, 4})
    ->Args({10000, 16})
    ->Args({10000, 64})
    ->Iterations(2000)
    ->Unit(benchmark::kMicrosecond);

/// One on-demand placement on a flat preemption-mode fleet of 256 servers,
/// each holding range(0) deflatable VMs on half its capacity. The VM fits
/// in free capacity, so nothing is evicted; the cost measured is choosing
/// the server. Each iteration times one place_vm, then removes the VM and
/// flushes untimed, so every iteration starts from the same state.
static void bench_preemption_place(benchmark::State& state) {
  constexpr std::size_t kServers = 256;
  constexpr int kCores = 128;
  const auto per_server = static_cast<int>(state.range(0));
  deflate::cluster::ClusterConfig config;
  config.server_count = kServers;
  config.server_capacity = {kCores, kCores * 2048.0, 1e9, 1e9};
  config.mode = deflate::cluster::ReclamationMode::Preemption;
  deflate::cluster::ClusterManager manager(config);

  // Fill every server exactly with 2 x range(0) deflatable VMs, then
  // remove every second VM of each server.
  deflate::hv::VmSpec spec;
  spec.vcpus = kCores / (2 * per_server);
  spec.memory_mib = spec.vcpus * 2048.0;
  spec.deflatable = true;
  std::vector<std::vector<std::uint64_t>> residents(kServers);
  const std::size_t fill = kServers * 2 * static_cast<std::size_t>(per_server);
  for (std::uint64_t id = 1; id <= fill; ++id) {
    spec.id = id;
    residents[manager.place_vm(spec).host_id].push_back(id);
  }
  for (const auto& ids : residents) {
    for (std::size_t k = 1; k < ids.size(); k += 2) manager.remove_vm(ids[k]);
  }
  manager.flush_views();

  spec.id = fill + 1;
  spec.vcpus = 8;
  spec.memory_mib = 16384.0;
  spec.deflatable = false;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const bool placed = manager.place_vm(spec).ok();
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    if (!placed) {
      state.SkipWithError("on-demand placement rejected");
      return;
    }
    manager.remove_vm(spec.id);
    manager.flush_views();
  }
}
BENCHMARK(bench_preemption_place)
    ->ArgName("vms_per_server")
    ->Arg(4)->Arg(16)->Arg(64)
    ->Iterations(2000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// --- layer benches: the in-shard scan and the tick flush --------------------

namespace {

/// A scan table of `n` random rows, written through the same row setter
/// the cluster manager's view refresh uses.
deflate::cluster::HostScanTable make_table(std::size_t n) {
  deflate::util::Rng rng(42);
  deflate::cluster::HostScanTable table;
  table.capacity = {48.0, 131072.0, 4000.0, 40000.0};
  table.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ResourceVector available{
        rng.uniform(0.0, 48.0), rng.uniform(0.0, 131072.0),
        rng.uniform(0.0, 4000.0), rng.uniform(0.0, 40000.0)};
    const ResourceVector deflatable{rng.uniform(0.0, 24.0),
                                    rng.uniform(0.0, 65536.0), 0.0, 0.0};
    table.set_row(i, available, deflatable, rng.uniform(0.5, 2.0));
    table.eligible[i] = rng.bernoulli(0.9) ? 1 : 0;
  }
  return table;
}

}  // namespace

/// One free-capacity scan over a pool of the table. range(0) = servers in
/// the table, range(1) = strategy (0 fitness, 1 first-fit, 2 best-fit),
/// range(2) = pool (0: the whole table; 1: pool 1 of five equal partition
/// pools, a sub-range starting off block alignment). Wall-clock time;
/// items are the rows scanned.
static void bench_scan_pick_host(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const auto scorer = deflate::cluster::make_placement_scorer(
      deflate::cluster::placement_strategy_name(
          static_cast<deflate::cluster::PlacementStrategy>(state.range(1))));
  const auto table = make_table(servers);
  const deflate::cluster::ServerRange pool =
      state.range(2) == 0
          ? deflate::cluster::ServerRange{0, servers}
          : deflate::cluster::ClusterPartitions(servers, {1, 1, 1, 1, 1})
                .pool(1);
  const ResourceVector demand(8.0, 16384.0, 100.0, 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deflate::cluster::scan_pick_host(
        *scorer, demand, table, pool.first, pool.last,
        deflate::cluster::ScanFeasibility::FreeCapacity,
        /*under_pressure=*/false));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool.size()));
}
BENCHMARK(bench_scan_pick_host)
    ->ArgNames({"servers", "strategy", "pool"})
    ->ArgsProduct({{125, 1250, 12500}, {0, 1, 2}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// One fitness pick under steady churn on a flat fleet of range(0) servers
/// warmed to ~50% CPU. Each iteration removes a random resident and places
/// a fresh VM through the public ClusterManager API, flushes, then times
/// one free-capacity pick for the next VM's demand: range(1) = 0 asks the
/// manager's selector (the index, after its lazy re-score of the rows the
/// churn dirtied), 1 runs scan_pick_host over the same table.
static void bench_selector_pick(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const bool scan = state.range(1) != 0;
  deflate::cluster::ClusterConfig config;
  config.server_count = servers;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  deflate::cluster::ClusterManager manager(config);
  deflate::util::Rng rng(42);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  double committed = 0.0;
  const double target = 0.5 * 48.0 * static_cast<double>(servers);
  while (committed < target) {
    const auto spec = bench_spec(rng, next_id++);
    if (manager.place_vm(spec).ok()) {
      live.push_back(spec.id);
      committed += static_cast<double>(spec.vcpus);
    }
  }

  const deflate::cluster::HostSelector& selector =
      manager.placement_selector();
  for (auto _ : state) {
    const auto gone = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    manager.remove_vm(live[gone]);
    live[gone] = live.back();
    live.pop_back();
    const auto spec = bench_spec(rng, next_id++);
    if (manager.place_vm(spec).ok()) live.push_back(spec.id);
    manager.flush_views();

    const ResourceVector demand = bench_spec(rng, 0).vector();
    const auto start = std::chrono::steady_clock::now();
    const auto server =
        scan ? deflate::cluster::scan_pick_host(
                   manager.placement_scorer(), demand, selector.table(), 0,
                   servers, deflate::cluster::ScanFeasibility::FreeCapacity,
                   /*under_pressure=*/false)
             : selector.pick(demand, 0, servers,
                             deflate::cluster::ScanFeasibility::FreeCapacity,
                             /*under_pressure=*/false);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(server);
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
}
BENCHMARK(bench_selector_pick)
    ->ArgNames({"servers", "scan"})
    ->ArgsProduct({{125, 1250, 12500}, {0, 1}})
    ->Iterations(2000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

/// One sharded tick flush with `range(0)` dirty servers per shard (0 =
/// every server) on a 4 x 1024-server fleet warmed to ~50% CPU. Each
/// iteration dirties the servers by removing one resident VM from each,
/// times only flush_views, then re-places the VMs untimed.
static void bench_sharded_flush(benchmark::State& state) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kPerShard = 1024;
  const auto requested = static_cast<std::size_t>(state.range(0));
  const std::size_t dirty = requested == 0 ? kPerShard : requested;
  deflate::cluster::ShardedClusterConfig config;
  config.cluster.server_count = kShards * kPerShard;
  config.cluster.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.shard_count = kShards;
  deflate::cluster::ClusterManager manager(config);
  deflate::util::Rng rng(42);
  std::uint64_t next_id = 1;
  double committed = 0.0;
  const double target = 0.5 * 48.0 * static_cast<double>(kShards * kPerShard);
  while (committed < target) {
    const auto spec = bench_spec(rng, next_id++);
    if (manager.place_vm(spec).ok()) {
      committed += static_cast<double>(spec.vcpus);
    }
  }
  manager.flush_views();

  std::size_t cursor = 0;
  for (auto _ : state) {
    std::size_t removed = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      std::size_t taken = 0;
      for (std::size_t k = 0; k < kPerShard && taken < dirty; ++k) {
        const std::size_t server = s * kPerShard + (cursor + k) % kPerShard;
        const auto& vms = manager.host(server).vms();
        if (vms.empty()) continue;
        manager.remove_vm(vms.front()->spec().id);
        ++taken;
      }
      removed += taken;
    }
    cursor += dirty;
    const auto start = std::chrono::steady_clock::now();
    manager.flush_views();
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    for (std::size_t i = 0; i < removed; ++i) {
      manager.place_vm(bench_spec(rng, next_id++));
    }
  }
}
BENCHMARK(bench_sharded_flush)
    ->ArgName("dirty_per_shard")
    ->Arg(1)
    ->Iterations(2000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bench_sharded_flush)
    ->ArgName("dirty_per_shard")
    ->Arg(64)
    ->Iterations(300)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bench_sharded_flush)
    ->ArgName("dirty_per_shard")
    ->Arg(0)
    ->Iterations(20)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
