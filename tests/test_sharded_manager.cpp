// Placement-invariant property tests for sharded fleets: no VM is ever
// resident twice, shard capacity accounting matches the per-server sums,
// callbacks carry global server ids, and a one-shard ShardedClusterConfig
// reproduces the ClusterConfig-built flat manager decision-for-decision.
#include "cluster/sharded_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace res = deflate::res;
namespace util = deflate::util;

namespace {

hv::VmSpec make_spec(std::uint64_t id, int vcpus, double mem_mib,
                     bool deflatable, double priority = 0.5) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = vcpus;
  spec.memory_mib = mem_mib;
  spec.disk_bw_mbps = 0.0;
  spec.net_bw_mbps = 0.0;
  spec.deflatable = deflatable;
  spec.priority = priority;
  return spec;
}

cl::ShardedClusterConfig sharded_config(std::size_t servers, std::size_t shards,
                                        cl::ReclamationMode mode =
                                            cl::ReclamationMode::Deflation) {
  cl::ShardedClusterConfig config;
  config.cluster.server_count = servers;
  config.cluster.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  config.cluster.mode = mode;
  config.shard_count = shards;
  return config;
}

/// Draws a random VM spec; the draw sequence depends only on `rng` and
/// `id`, so two managers fed the same stream see the same workload.
hv::VmSpec random_spec(util::Rng& rng, std::uint64_t id) {
  static const int kCores[] = {2, 4, 8};
  const int vcpus = kCores[rng.uniform_int(0, 2)];
  const bool deflatable = rng.bernoulli(0.5);
  const double priority =
      deflatable ? 0.2 * static_cast<double>(rng.uniform_int(1, 4)) : 1.0;
  return make_spec(id, vcpus, vcpus * 2048.0, deflatable, priority);
}

/// Every VM resident on some host appears exactly once fleet-wide, and
/// server_of/find_vm agree with the hosts' own bookkeeping both ways: they
/// find every resident VM where it lives, and none of the ids in `placed`
/// that is no longer resident.
void expect_single_residency(cl::ClusterManagerBase& manager,
                             const std::vector<std::uint64_t>& placed = {}) {
  std::unordered_map<std::uint64_t, std::size_t> seen;
  for (std::size_t s = 0; s < manager.server_count(); ++s) {
    for (const hv::Vm* vm : manager.host(s).vms()) {
      const auto [it, inserted] = seen.emplace(vm->spec().id, s);
      EXPECT_TRUE(inserted) << "vm " << vm->spec().id << " resident on server "
                            << it->second << " and " << s;
      EXPECT_EQ(manager.server_of(vm->spec().id).value(), s);
      EXPECT_NE(manager.find_vm(vm->spec().id), nullptr);
    }
  }
  for (const std::uint64_t id : placed) {
    if (seen.contains(id)) continue;
    EXPECT_FALSE(manager.server_of(id).has_value()) << "departed vm " << id;
    EXPECT_EQ(manager.find_vm(id), nullptr) << "departed vm " << id;
  }
}

/// Aggregate accounting equals the per-server sums.
void expect_accounting_matches(cl::ClusterManagerBase& manager) {
  res::ResourceVector allocated, committed;
  for (std::size_t s = 0; s < manager.server_count(); ++s) {
    allocated += manager.host(s).allocated();
    committed += manager.host(s).committed();
  }
  for (const res::Resource r : res::all_resources) {
    EXPECT_DOUBLE_EQ(manager.total_allocated()[r], allocated[r]);
    EXPECT_DOUBLE_EQ(manager.total_committed()[r], committed[r]);
  }
}

}  // namespace

TEST(ShardedFleet, OneShardConfigEqualsTheFlatConfig) {
  cl::ShardedClusterConfig config = sharded_config(24, 1);
  cl::ClusterManager flat(config.cluster);
  cl::ClusterManager sharded(config);
  ASSERT_EQ(flat.shard_count(), 1U);
  ASSERT_EQ(sharded.shard_count(), 1U);

  util::Rng rng(13);
  std::vector<std::uint64_t> live;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    if (!live.empty() && rng.bernoulli(0.3)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const std::uint64_t victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_EQ(flat.remove_vm(victim), sharded.remove_vm(victim));
      continue;
    }
    const hv::VmSpec spec = random_spec(rng, id);
    const cl::PlacementResult a = flat.place_vm(spec);
    const cl::PlacementResult b = sharded.place_vm(spec);
    EXPECT_EQ(a.status, b.status) << "vm " << id;
    EXPECT_EQ(a.host_id, b.host_id) << "vm " << id;
    EXPECT_DOUBLE_EQ(a.launch_fraction, b.launch_fraction) << "vm " << id;
    if (a.ok()) live.push_back(id);
  }

  EXPECT_EQ(flat.stats().placements, sharded.stats().placements);
  EXPECT_EQ(flat.stats().rejections, sharded.stats().rejections);
  EXPECT_EQ(flat.stats().deflated_launches, sharded.stats().deflated_launches);
  EXPECT_EQ(flat.stats(), sharded.stats());
  for (const res::Resource r : res::all_resources) {
    EXPECT_DOUBLE_EQ(flat.total_committed()[r], sharded.total_committed()[r]);
    EXPECT_DOUBLE_EQ(flat.total_allocated()[r], sharded.total_allocated()[r]);
  }
}

/// Churn over a flat and a sharded fleet in both reclamation modes, so
/// every erase from the manager's id index runs on each: removal, the
/// revocation strip (its VMs re-placed in deflation mode, killed in
/// preemption mode) and preemption victims.
class ShardedFleetChurn : public ::testing::TestWithParam<
                              std::tuple<std::size_t, cl::ReclamationMode>> {};

INSTANTIATE_TEST_SUITE_P(
    ShardsAndModes, ShardedFleetChurn,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values(cl::ReclamationMode::Deflation,
                                         cl::ReclamationMode::Preemption)),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == cl::ReclamationMode::Deflation
                  ? "_deflation"
                  : "_preemption");
    });

TEST_P(ShardedFleetChurn, NoVmPlacedTwiceAcrossRandomizedChurn) {
  const auto [shards, mode] = GetParam();
  std::uint64_t re_placed = 0, killed = 0, evicted = 0;
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL, 71ULL, 2020ULL}) {
    cl::ClusterManager manager(sharded_config(64, shards, mode));
    util::Rng rng(seed);
    std::vector<std::uint64_t> live;
    std::vector<std::uint64_t> placed;
    // Preemption victims and revocation kills leave through this callback;
    // a VM that vanished without it stays in `live` and fails below.
    manager.subscribe_preemption(
        [&](const hv::VmSpec& spec, std::uint64_t /*server*/) {
          std::erase(live, spec.id);
        });
    std::uint64_t next_id = 1;
    for (int step = 0; step < 600; ++step) {
      const double roll = rng.u01();
      if (roll < 0.55 || live.empty()) {
        const hv::VmSpec spec = random_spec(rng, next_id++);
        if (manager.place_vm(spec).ok()) {
          live.push_back(spec.id);
          placed.push_back(spec.id);
        }
      } else if (roll < 0.85) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        EXPECT_TRUE(manager.remove_vm(live[pick]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (roll < 0.95) {
        const auto server = static_cast<std::size_t>(rng.uniform_int(0, 63));
        if (manager.server_active(server) &&
            manager.active_server_count() > 48) {
          manager.revoke_server(server);
        }
      } else {
        const auto server = static_cast<std::size_t>(rng.uniform_int(0, 63));
        if (!manager.server_active(server)) manager.restore_server(server);
      }
    }
    expect_single_residency(manager, placed);
    expect_accounting_matches(manager);
    for (const std::uint64_t id : live) {
      EXPECT_NE(manager.find_vm(id), nullptr) << "seed " << seed;
    }
    re_placed += manager.stats().revocation_migrations;
    killed += manager.stats().revocation_kills;
    evicted += manager.stats().preemptions - manager.stats().revocation_kills;
  }
  // The churn reaches the erase paths its mode has: a revocation re-places
  // in deflation mode, and kills and evicts in preemption mode.
  if (mode == cl::ReclamationMode::Deflation) {
    EXPECT_GT(re_placed, 0U);
  } else {
    EXPECT_GT(killed, 0U);
    EXPECT_GT(evicted, 0U);
  }
}

TEST(ShardedFleet, CapacityAccountingMatchesPerServerSum) {
  cl::ClusterManager manager(sharded_config(20, 4));
  for (std::uint64_t id = 1; id <= 60; ++id) {
    manager.place_vm(make_spec(id, 4, 8192.0, id % 2 == 0));
  }
  expect_accounting_matches(manager);
  EXPECT_DOUBLE_EQ(manager.total_capacity().cpu(), 20 * 16.0);
}

TEST(ShardedFleet, MigrationCallbacksCarryGlobalServerIds) {
  // 12 servers in 4 shards of 3; fill a server in the *last* shard so the
  // local->global translation (local ids 0..2) is actually exercised.
  cl::ClusterManager manager(sharded_config(12, 4));
  std::uint64_t id = 1;
  std::size_t victim_server = 0;
  std::uint64_t victim_vm = 0;
  for (; id <= 200 && victim_vm == 0; ++id) {
    const cl::PlacementResult placed =
        manager.place_vm(make_spec(id, 4, 8192.0, /*deflatable=*/true));
    ASSERT_TRUE(placed.ok());
    if (placed.host_id >= 9) {  // shard 3 owns global ids 9..11
      victim_server = placed.host_id;
      victim_vm = id;
    }
  }
  ASSERT_NE(victim_vm, 0U) << "no placement landed in the last shard";

  std::size_t migrations = 0;
  manager.subscribe_migration([&](const hv::VmSpec& spec, std::uint64_t from,
                                  std::uint64_t to, double /*fraction*/) {
    ++migrations;
    EXPECT_EQ(from, victim_server);
    EXPECT_NE(to, victim_server);
    EXPECT_LT(to, manager.server_count());
    // The callback's destination is where the VM actually lives now.
    EXPECT_EQ(manager.server_of(spec.id).value(), to);
  });
  std::size_t revocation_events = 0;
  manager.subscribe_revocation(
      [&](std::uint64_t host, const cl::RevocationOutcome& outcome) {
        ++revocation_events;
        EXPECT_EQ(host, victim_server);
        EXPECT_GE(outcome.vms_displaced, 1U);
      });

  const cl::RevocationOutcome outcome = manager.revoke_server(victim_server);
  EXPECT_EQ(revocation_events, 1U);
  EXPECT_EQ(migrations, outcome.vms_migrated);
  EXPECT_FALSE(manager.server_active(victim_server));
  expect_single_residency(manager);
}

TEST(ShardedFleet, PreemptionCallbacksCarryGlobalServerIds) {
  cl::ClusterManager manager(
      sharded_config(8, 4, cl::ReclamationMode::Preemption));
  std::unordered_map<std::uint64_t, std::size_t> placed_on;
  for (std::uint64_t id = 1; id <= 16; ++id) {
    const cl::PlacementResult placed =
        manager.place_vm(make_spec(id, 8, 16384.0, /*deflatable=*/true, 0.2));
    ASSERT_TRUE(placed.ok());
    placed_on[id] = placed.host_id;
  }
  std::size_t kills = 0;
  manager.subscribe_preemption([&](const hv::VmSpec& spec, std::uint64_t host) {
    ++kills;
    EXPECT_EQ(placed_on.at(spec.id), host);
  });
  const std::size_t victim = placed_on.at(16);
  const cl::RevocationOutcome outcome = manager.revoke_server(victim);
  EXPECT_EQ(outcome.vms_killed, kills);
  EXPECT_GE(kills, 1U);
}

TEST(ShardedFleet, PreemptionModeEvictionForwardsGlobalIds) {
  // Shard 0 (servers 0-1) ends up holding only on-demand VMs and shard 1
  // (servers 2-3) only deflatable ones, so the last on-demand VM can land
  // only by evicting in shard 1. The shard's preemption callback must
  // reach subscribers with the global server id and retire the victim.
  cl::ClusterManager manager(
      sharded_config(4, 2, cl::ReclamationMode::Preemption));
  std::unordered_map<std::uint64_t, std::size_t> placed_on;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    placed_on[id] =
        manager.place_vm(make_spec(id, 8, 16384.0, true, 0.2)).host_id;
  }
  for (std::uint64_t id = 1; id <= 8; ++id) {
    if (placed_on.at(id) < 2) {
      EXPECT_TRUE(manager.remove_vm(id));
    }
  }
  for (std::uint64_t id = 9; id <= 10; ++id) {
    ASSERT_LT(manager.place_vm(make_spec(id, 16, 32768.0, false)).host_id, 2U);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> evicted;  // vm, host
  manager.subscribe_preemption([&](const hv::VmSpec& spec, std::uint64_t host) {
    evicted.emplace_back(spec.id, host);
  });
  const cl::PlacementResult placed =
      manager.place_vm(make_spec(11, 8, 16384.0, false));
  ASSERT_TRUE(placed.ok());
  ASSERT_EQ(evicted.size(), 1U);
  const auto [victim, host] = evicted.front();
  EXPECT_EQ(host, placed.host_id);  // first + local, not the local id
  EXPECT_EQ(host, placed_on.at(victim));
  EXPECT_FALSE(manager.server_of(victim).has_value());
  EXPECT_FALSE(manager.remove_vm(victim));  // retired from routing
  EXPECT_EQ(manager.stats().preemptions, evicted.size());
}

TEST(ShardedFleet, RejectionStatsAreEndToEnd) {
  // Two single-server shards, both full: a third on-demand VM is turned
  // away by *both* shards but must count as one cluster-level rejection,
  // matching the flat manager's semantics.
  cl::ClusterManager manager(sharded_config(2, 2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, false)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, false)).ok());
  EXPECT_FALSE(manager.place_vm(make_spec(3, 16, 32768.0, false)).ok());
  EXPECT_EQ(manager.stats().rejections, 1U);
  EXPECT_EQ(manager.stats().placements, 2U);
  // The reclamation counters are end-to-end too: the flat manager charges
  // one failed attempt for this workload, not one per shard shopped.
  EXPECT_EQ(manager.stats().reclamation_attempts, 1U);
  EXPECT_EQ(manager.stats().reclamation_failures, 1U);
}

TEST(ShardedFleet, RevocationMigratesCrossShardWithFlatKillParity) {
  // Home shard full, neighbor shard empty: the displaced VM used to be
  // killed (the shard-local place_vm only scanned its own shard); it must
  // now migrate through the top-level scheduler, matching the flat
  // manager's kill count on the same workload.
  cl::ShardedClusterConfig config = sharded_config(4, 2);
  cl::ClusterManager sharded(config);
  cl::ClusterManager flat(config.cluster);

  // Victim: 8 cores with a 50% floor so fillers cannot deflate onto its
  // server; parked in shard 0 (servers 0-1).
  hv::VmSpec victim_vm = make_spec(1, 8, 8192.0, true, /*priority=*/0.9);
  victim_vm.min_fraction = 0.5;
  cl::PlacementResult placed = sharded.place_vm(victim_vm);
  ASSERT_TRUE(placed.ok());
  std::uint64_t filler_id = 100;
  while (placed.host_id >= 2) {
    sharded.remove_vm(victim_vm.id);
    victim_vm.id = ++filler_id;
    placed = sharded.place_vm(victim_vm);
    ASSERT_TRUE(placed.ok());
  }
  const std::size_t victim_server = placed.host_id;
  const std::size_t other0 = 1 - victim_server;

  // Pack shard 0's other server with on-demand load; fillers the router
  // parks in shard 1 are removed again, so shard 1 keeps its headroom.
  std::vector<std::uint64_t> shard1_fillers;
  std::vector<std::uint64_t> shard0_fillers;
  while (sharded.host(other0).committed().cpu() < 16.0) {
    const std::uint64_t id = ++filler_id;
    const cl::PlacementResult filler =
        sharded.place_vm(make_spec(id, 16, 32768.0, false));
    ASSERT_TRUE(filler.ok());
    (filler.host_id >= 2 ? shard1_fillers : shard0_fillers).push_back(id);
  }
  for (const std::uint64_t id : shard1_fillers) sharded.remove_vm(id);

  // Mirror the shape on the flat manager: the victim on one server, one
  // other server packed with on-demand load, the rest of the fleet empty.
  const cl::PlacementResult flat_placed = flat.place_vm(victim_vm);
  ASSERT_TRUE(flat_placed.ok());
  const std::size_t flat_victim_server = flat_placed.host_id;
  for (const std::uint64_t id : shard0_fillers) {
    const cl::PlacementResult filler =
        flat.place_vm(make_spec(id, 16, 32768.0, false));
    ASSERT_TRUE(filler.ok());
    ASSERT_NE(filler.host_id, flat_victim_server);
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> migrations;
  sharded.subscribe_migration([&](const hv::VmSpec& spec, std::uint64_t from,
                                  std::uint64_t to, double /*fraction*/) {
    EXPECT_EQ(spec.id, victim_vm.id);
    EXPECT_EQ(from, victim_server);
    migrations.emplace_back(spec.id, to);
  });

  const cl::RevocationOutcome sharded_outcome =
      sharded.revoke_server(victim_server);
  const cl::RevocationOutcome flat_outcome =
      flat.revoke_server(flat_victim_server);

  // Flat-manager parity: same displaced set, same kill count (zero).
  EXPECT_EQ(sharded_outcome.vms_displaced, flat_outcome.vms_displaced);
  EXPECT_EQ(sharded_outcome.vms_killed, flat_outcome.vms_killed);
  EXPECT_EQ(sharded_outcome.vms_killed, 0U);
  EXPECT_EQ(sharded_outcome.vms_migrated, 1U);
  EXPECT_EQ(sharded.stats().revocation_kills, flat.stats().revocation_kills);

  // The survivor landed outside its home shard, with a global-id callback.
  ASSERT_EQ(migrations.size(), 1U);
  EXPECT_GE(migrations[0].second, 2U);
  EXPECT_EQ(sharded.server_of(victim_vm.id).value(), migrations[0].second);
  expect_single_residency(sharded);
}

TEST(ShardedFleet, RestoreReturnsCapacityToTheAggregateView) {
  // After a revoke + restore cycle the scheduler must route placements
  // onto the returned capacity again (the shard aggregate is refreshed on
  // both transitions).
  cl::ClusterManager manager(sharded_config(4, 2));
  for (std::uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(manager.place_vm(make_spec(id, 16, 32768.0, false)).ok());
  }
  // Fleet is full: 4 servers x 16 cores all committed.
  ASSERT_FALSE(manager.place_vm(make_spec(9, 16, 32768.0, false)).ok());

  const std::size_t victim = manager.server_of(1).value();
  manager.revoke_server(victim);  // resident on-demand VM dies (fleet full)
  EXPECT_EQ(manager.active_server_count(), 3U);
  manager.restore_server(victim);
  EXPECT_EQ(manager.active_server_count(), 4U);

  // Only the restored (empty) server can take this; routing must find it.
  const cl::PlacementResult placed =
      manager.place_vm(make_spec(10, 16, 32768.0, false));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.host_id, victim);
}

TEST(ShardedFleet, PoolServersCoverFleetWithoutOverlap) {
  cl::ShardedClusterConfig config = sharded_config(20, 4);
  config.cluster.partitioned = true;
  config.cluster.pool_weights = {0.5, 0.5};
  cl::ClusterManager manager(config);

  std::unordered_set<std::size_t> seen;
  std::size_t total = 0;
  for (std::size_t pool = 0; pool < 2; ++pool) {
    for (const std::size_t server : manager.pool_servers(pool)) {
      EXPECT_LT(server, manager.server_count());
      EXPECT_TRUE(seen.insert(server).second)
          << "server " << server << " in two pools";
      ++total;
    }
  }
  EXPECT_EQ(total, manager.server_count());
}

TEST(ShardedFleet, PoolServersOrderingContractAcrossManagers) {
  // The pool_servers contract every consumer (market plan rebinding, the
  // partitioned simulator) relies on: global ids, strictly ascending
  // within a pool, pools disjoint and jointly covering the fleet, stable
  // across calls — for the flat manager and any shard count alike, and
  // identical between the flat manager and a 1-shard config.
  cl::ShardedClusterConfig flat_config = sharded_config(20, 1);
  flat_config.cluster.partitioned = true;
  flat_config.cluster.pool_weights = {0.4, 0.2, 0.2, 0.2};
  cl::ShardedClusterConfig sharded = flat_config;
  sharded.shard_count = 4;

  const cl::ClusterManager flat(flat_config.cluster);
  const cl::ClusterManager one_shard(flat_config);
  const cl::ClusterManager four_shards(sharded);
  const std::vector<const cl::ClusterManagerBase*> managers{
      &flat, &one_shard, &four_shards};

  for (const cl::ClusterManagerBase* manager : managers) {
    std::unordered_set<std::size_t> seen;
    std::size_t total = 0;
    for (std::size_t pool = 0; pool < 4; ++pool) {
      const std::vector<std::size_t> servers = manager->pool_servers(pool);
      EXPECT_FALSE(servers.empty()) << "pool " << pool;
      for (std::size_t i = 0; i < servers.size(); ++i) {
        EXPECT_LT(servers[i], manager->server_count());
        if (i > 0) {
          EXPECT_LT(servers[i - 1], servers[i]) << "pool " << pool;
        }
        EXPECT_TRUE(seen.insert(servers[i]).second)
            << "server " << servers[i] << " owned by two pools";
      }
      total += servers.size();
      // Stable: a second call returns the same ids.
      EXPECT_EQ(manager->pool_servers(pool), servers);
    }
    EXPECT_EQ(total, manager->server_count());
  }
  // shard_count == 1 is the flat manager bit for bit, pools included.
  for (std::size_t pool = 0; pool < 4; ++pool) {
    EXPECT_EQ(flat.pool_servers(pool), one_shard.pool_servers(pool));
  }
}

TEST(ShardedFleet, DrainThenRestoreWithoutRevocationReopensServer) {
  // A withdrawn warning: drain_server followed by restore_server with no
  // revocation in between must reopen the server for placements without
  // counting a restoration, on flat and sharded fleets alike.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    cl::ClusterManager manager(sharded_config(4, shards));
    // Fill every server except the victim so placements must land there.
    for (std::uint64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE(manager.place_vm(make_spec(id, 16, 32768.0, false)).ok());
    }
    std::size_t victim = 0;
    std::unordered_set<std::size_t> occupied;
    for (std::uint64_t id = 1; id <= 3; ++id) {
      occupied.insert(manager.server_of(id).value());
    }
    for (std::size_t s = 0; s < manager.server_count(); ++s) {
      if (!occupied.count(s)) victim = s;
    }

    manager.drain_server(victim);
    EXPECT_TRUE(manager.server_active(victim)) << "drain is not a revocation";
    EXPECT_FALSE(manager.place_vm(make_spec(8, 16, 32768.0, false)).ok())
        << "shards=" << shards << ": draining server must not accept";

    manager.restore_server(victim);
    EXPECT_EQ(manager.stats().restorations, 0U)
        << "restoring a never-revoked server is not a restoration";
    const cl::PlacementResult placed =
        manager.place_vm(make_spec(9, 16, 32768.0, false));
    ASSERT_TRUE(placed.ok()) << "shards=" << shards;
    EXPECT_EQ(placed.host_id, victim);
  }
}

TEST(ShardedFleet, ShardCountClampedToFleetSize) {
  // More shards than servers: every shard still owns at least one server.
  cl::ClusterManager manager(sharded_config(3, 16));
  EXPECT_EQ(manager.shard_count(), 3U);
  EXPECT_EQ(manager.server_count(), 3U);
  EXPECT_TRUE(manager.place_vm(make_spec(1, 4, 8192.0, false)).ok());
}

TEST(ShardedFleet, SelectionPoliciesAllPlaceAndBalance) {
  for (const auto policy : {cl::ShardSelectionPolicy::PowerOfTwoChoices,
                            cl::ShardSelectionPolicy::LeastLoaded,
                            cl::ShardSelectionPolicy::RoundRobin}) {
    cl::ShardedClusterConfig config = sharded_config(16, 4);
    config.selection = policy;
    cl::ClusterManager manager(config);
    for (std::uint64_t id = 1; id <= 32; ++id) {
      ASSERT_TRUE(manager.place_vm(make_spec(id, 4, 8192.0, false)).ok())
          << cl::shard_selection_name(policy);
    }
    // No shard hoards the whole workload: every shard's servers hold
    // something (32 x 4 cores over 4 shards of 64 cores each).
    for (std::size_t shard = 0; shard < 4; ++shard) {
      double committed = 0.0;
      for (std::size_t local = 0; local < 4; ++local) {
        committed += manager.host(shard * 4 + local).committed().cpu();
      }
      EXPECT_GT(committed, 0.0) << cl::shard_selection_name(policy)
                                << " shard " << shard;
    }
  }
}

TEST(ShardedFleet, ZeroServerFleetsAreRejected) {
  cl::ShardedClusterConfig config = sharded_config(0, 4);
  EXPECT_THROW(cl::ClusterManager{config.cluster}, std::invalid_argument);
  EXPECT_THROW(cl::ClusterManager{config}, std::invalid_argument);
  EXPECT_THROW((void)cl::make_cluster_manager(config), std::invalid_argument);
  config.shard_count = 1;
  EXPECT_THROW((void)cl::make_cluster_manager(config), std::invalid_argument);
}

// --- incremental fixed-point aggregates --------------------------------------

namespace {

/// After a flush, shard `s`'s running free total equals a from-scratch
/// fixed-point sum over its active rows exactly, and a plain double
/// rescan of its servers themselves to within rounding. In preemption
/// mode every eviction-table row also equals a fresh in-order sum over
/// the server's deflatable residents, bit for bit.
void expect_free_total_exact(cl::ClusterManager& manager, std::size_t s,
                             const std::string& where) {
  const cl::FixedPointRow incremental = manager.aggregate_free_units(s);
  EXPECT_EQ(incremental, manager.rescan_free_units(s)) << where;
  const cl::HostScanTable& eviction = manager.eviction_table(s);
  const bool preemption = eviction.size() != 0;
  const cl::ServerRange servers = manager.shard_servers(s);
  res::ResourceVector rescan;
  for (std::size_t i = servers.first; i < servers.last; ++i) {
    if (preemption) {
      res::ResourceVector preemptable;
      for (const hv::Vm* vm : manager.host(i).vms()) {
        if (vm->spec().deflatable) preemptable += vm->effective_allocation();
      }
      EXPECT_EQ(eviction.deflatable_of(i - servers.first), preemptable)
          << where << " " << i;
    }
    if (!manager.server_active(i)) continue;
    rescan += manager.host(i).available();
    if (!preemption) rescan += manager.controller(i).reclaimable_headroom();
  }
  const res::ResourceVector total = manager.aggregate_free(s);
  for (const res::Resource r : res::all_resources) {
    EXPECT_NEAR(total[r], rescan[r], 1e-9 * std::max(1.0, std::abs(rescan[r])))
        << where << " shard " << s << " " << res::resource_name(r);
  }
}

/// The generated traces' VM size menu (vcpus, memory GiB), with their
/// disk and network demands.
std::vector<res::ResourceVector> size_menu_demands() {
  constexpr std::pair<int, double> kSizes[] = {
      {1, 1.75}, {1, 2.0},  {2, 3.5},  {2, 4.0},   {2, 8.0},   {4, 8.0},
      {4, 16.0}, {8, 16.0}, {8, 32.0}, {16, 64.0}, {24, 64.0}, {32, 112.0}};
  std::vector<res::ResourceVector> demands;
  for (const auto& [vcpus, memory_gib] : kSizes) {
    demands.emplace_back(vcpus, memory_gib * 1024.0, 50.0 + 20.0 * vcpus,
                         500.0 + 125.0 * vcpus);
  }
  return demands;
}

/// Each of shard `s`'s selectors picks, for every size-menu shape in the
/// passes its placements ask and over every partition pool, the row
/// scan_pick_host picks over the same table.
void expect_selectors_match_scan(const cl::ClusterManager& manager,
                                 std::size_t s, const std::string& where) {
  static const std::vector<res::ResourceVector> demands = size_menu_demands();
  using Pass = std::pair<cl::ScanFeasibility, bool>;
  const bool preemption = manager.eviction_table(s).size() != 0;
  const std::vector<Pass> passes =
      preemption ? std::vector<Pass>{{cl::ScanFeasibility::WithDeflation,
                                      false}}
                 : std::vector<Pass>{{cl::ScanFeasibility::FreeCapacity, false},
                                     {cl::ScanFeasibility::WithDeflation,
                                      true}};
  std::vector<const cl::HostSelector*> selectors{
      &manager.placement_selector(s)};
  if (preemption) selectors.push_back(&manager.eviction_selector(s));
  const cl::ClusterPartitions& partitions = manager.partitions(s);
  for (const cl::HostSelector* selector : selectors) {
    for (std::size_t pool = 0; pool < partitions.pool_count(); ++pool) {
      const cl::ServerRange range = partitions.pool(pool);
      for (const res::ResourceVector& demand : demands) {
        for (const auto& [feasibility, pressure] : passes) {
          EXPECT_EQ(selector->pick(demand, range.first, range.last,
                                   feasibility, pressure),
                    cl::scan_pick_host(selector->scorer(), demand,
                                       selector->table(), range.first,
                                       range.last, feasibility, pressure))
              << where << " shard " << s << " pool " << pool << " demand "
              << demand.cpu() << " pressure " << pressure;
        }
      }
    }
  }
}

/// Flushes and checks every shard, plus the routing cache of a sharded
/// fleet.
void flush_and_check(cl::ClusterManager& manager, const std::string& where) {
  manager.flush_views();
  for (std::size_t s = 0; s < manager.shard_count(); ++s) {
    if (manager.shard_count() > 1) {
      // Before the checks below, which flush the shard themselves.
      EXPECT_EQ(manager.cached_shard_free(s), manager.aggregate_free(s))
          << where << " shard " << s;
    }
    expect_free_total_exact(manager, s, where);
    expect_selectors_match_scan(manager, s, where);
  }
}

/// Randomized place/remove/revoke/restore/drain churn with irregular
/// flushes and periodic mass departures.
void churn_with_checks(std::size_t shards, std::size_t servers = 1200,
                       cl::ReclamationMode mode =
                           cl::ReclamationMode::Deflation,
                       bool partitioned = false) {
  cl::ShardedClusterConfig config = sharded_config(servers, shards, mode);
  config.cluster.partitioned = partitioned;
  const auto manager = std::make_unique<cl::ClusterManager>(config);
  ASSERT_EQ(manager->shard_count(), shards);
  const std::string where = "shards " + std::to_string(shards) +
                            (partitioned ? " partitioned" : "");

  util::Rng rng(99);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  const auto remove_at = [&](std::size_t pick) {
    EXPECT_TRUE(manager->remove_vm(live[pick]));
    live[pick] = live.back();
    live.pop_back();
  };
  const auto forget_gone = [&] {
    std::erase_if(live, [&](std::uint64_t id) {
      return manager->find_vm(id) == nullptr;
    });
  };
  for (int step = 0; step < 4500; ++step) {
    const double roll = rng.u01();
    if (step % 1500 == 1499) {
      // Mass departure: most residents leave between two flushes, which
      // dirties most servers of every shard at once.
      while (live.size() > 20) remove_at(live.size() / 2);
    } else if (roll < 0.8 || live.empty()) {
      hv::VmSpec spec = random_spec(rng, next_id++);
      spec.memory_mib += rng.uniform(0.0, 1.0);  // fractional MiB
      if (manager->place_vm(spec).ok()) live.push_back(spec.id);
      if (mode == cl::ReclamationMode::Preemption) forget_gone();  // evicted
    } else if (roll < 0.92) {
      remove_at(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1)));
    } else if (roll < 0.95) {
      const auto server = static_cast<std::size_t>(
          rng.uniform_int(0, servers - 1));
      if (manager->active_server_count() > servers / 2) {
        manager->revoke_server(server);
        forget_gone();
      }
    } else if (roll < 0.98) {
      manager->restore_server(
          static_cast<std::size_t>(rng.uniform_int(0, servers - 1)));
    } else {
      manager->drain_server(
          static_cast<std::size_t>(rng.uniform_int(0, servers - 1)));
    }
    if (rng.bernoulli(0.2)) flush_and_check(*manager, where);
  }
  flush_and_check(*manager, where);
  if (mode == cl::ReclamationMode::Preemption) {
    EXPECT_GT(manager->stats().preemptions, 0U) << where;  // evictions ran
  }
  // The selector checks compared indexed picks, not only scan fallbacks.
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(manager->placement_selector(s).indexed_keys(), 0U)
        << where << " shard " << s;
  }
}

}  // namespace

TEST(ShardedFleet, IncrementalFreeTotalsMatchRescanThroughChurn) {
  for (const std::size_t shards : {1U, 4U}) churn_with_checks(shards);
}

TEST(ShardedFleet, PartitionedSelectorsMatchTheScanThroughChurn) {
  churn_with_checks(1, 1200, cl::ReclamationMode::Deflation,
                    /*partitioned=*/true);
  // Each of the four 120-server shards partitions itself.
  churn_with_checks(4, 480, cl::ReclamationMode::Deflation,
                    /*partitioned=*/true);
}

TEST(ShardedFleet, EvictionTableMatchesRescanThroughPreemptionChurn) {
  // A small fleet fills up, so on-demand placements evict.
  for (const std::size_t shards : {1U, 4U}) {
    churn_with_checks(shards, 120, cl::ReclamationMode::Preemption);
  }
}

TEST(ShardedFleet, FreeTotalIsIndependentOfMutationOrder) {
  // Two fleets reach one end state along different paths: the same
  // placements, then the same departures and empty-server revocations in
  // opposite orders and at different flush cadences. Fractional memory
  // sizes make a running double sum order-dependent; the fixed-point total
  // must not be.
  cl::ClusterConfig config = sharded_config(40, 1).cluster;
  config.placement = cl::PlacementStrategy::FirstFit;  // leaves servers empty
  cl::ClusterManager forward(config);
  cl::ClusterManager backward(config);
  std::vector<std::uint64_t> departures;
  for (std::uint64_t id = 1; id <= 120; ++id) {
    const hv::VmSpec spec = make_spec(id, 1, 1000.0 + 0.1 * id, id % 3 == 0);
    ASSERT_EQ(forward.place_vm(spec).host_id, backward.place_vm(spec).host_id);
    if (id % 2 == 0) departures.push_back(id);
  }
  std::vector<std::size_t> empty_servers;
  for (std::size_t i = 0; i < config.server_count; ++i) {
    if (forward.host(i).vms().empty()) empty_servers.push_back(i);
  }
  ASSERT_FALSE(empty_servers.empty());

  for (const std::uint64_t id : departures) {
    ASSERT_TRUE(forward.remove_vm(id));
    forward.flush_views();
  }
  for (const std::size_t server : empty_servers) forward.revoke_server(server);
  std::reverse(departures.begin(), departures.end());
  std::reverse(empty_servers.begin(), empty_servers.end());
  for (const std::size_t server : empty_servers) backward.revoke_server(server);
  for (const std::uint64_t id : departures) ASSERT_TRUE(backward.remove_vm(id));

  // Same end state, server by server...
  for (std::size_t i = 0; i < config.server_count; ++i) {
    ASSERT_EQ(forward.host(i).available(), backward.host(i).available());
    ASSERT_EQ(forward.controller(i).reclaimable_headroom(),
              backward.controller(i).reclaimable_headroom());
  }
  // ...so the same total, bit for bit.
  EXPECT_EQ(forward.aggregate_free_units(), backward.aggregate_free_units());
  EXPECT_EQ(forward.aggregate_free(), backward.aggregate_free());
  EXPECT_EQ(forward.aggregate_free_units(), forward.rescan_free_units());
}
