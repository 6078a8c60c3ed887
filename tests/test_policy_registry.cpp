// The generic policy layer (src/policy): registration/enumeration rules,
// alias lookup, link-time plugin registration driving a sharded fleet and
// a full simulation end-to-end, per-surface legacy-enum vs registry-name
// bit-parity, PolicySet validation, and concurrent registry access (the
// last is in CI's TSan matrix).
#include "policy/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "cluster/admission.hpp"
#include "cluster/cluster_manager.hpp"
#include "cluster/migration.hpp"
#include "cluster/placement.hpp"
#include "cluster/sharded_manager.hpp"
#include "policy/catalog.hpp"
#include "policy/policy_set.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "transient/revocation.hpp"
#include "transient/spot_price.hpp"
#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace policy = deflate::policy;
namespace sc = deflate::simcluster;
namespace sim = deflate::sim;
namespace tr = deflate::trace;
namespace transient = deflate::transient;
namespace util = deflate::util;

namespace {

hv::VmSpec make_spec(std::uint64_t id, int vcpus, double mem_mib,
                     bool deflatable, double priority = 0.5) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = vcpus;
  spec.memory_mib = mem_mib;
  spec.deflatable = deflatable;
  spec.priority = priority;
  return spec;
}

hv::VmSpec random_spec(util::Rng& rng, std::uint64_t id) {
  static const int kCores[] = {2, 4, 8};
  const int vcpus = kCores[rng.uniform_int(0, 2)];
  const bool deflatable = rng.bernoulli(0.5);
  const double priority =
      deflatable ? 0.2 * static_cast<double>(rng.uniform_int(1, 4)) : 1.0;
  return make_spec(id, vcpus, vcpus * 2048.0, deflatable, priority);
}

std::vector<tr::VmRecord> small_trace(std::size_t n = 300,
                                      std::uint64_t seed = 77) {
  tr::AzureTraceConfig config;
  config.vm_count = n;
  config.seed = seed;
  config.duration = sim::SimTime::from_hours(36);
  return tr::AzureTraceGenerator(config).generate();
}

/// Link-time plugin: a shard selector that always proposes shard 0 (when
/// the VM fits there), exercising the exact registration path an external
/// plugin TU would use. Registered at namespace scope, before main().
class FirstShardSelector final : public cl::ShardSelector {
 public:
  void route(const cl::ShardScores& scores, util::Rng& /*rng*/,
             std::vector<std::size_t>& picks) override {
    if (scores.count() > 0) push_if_fits(scores, 0, picks);
  }
};

policy::PolicyRegistry<cl::ShardSelectionSurface>::Entry first_shard_entry() {
  policy::PolicyRegistry<cl::ShardSelectionSurface>::Entry entry;
  entry.name = "first-shard";
  entry.description = "test plugin: always prefer shard 0";
  entry.make = [] { return std::make_unique<FirstShardSelector>(); };
  return entry;
}

const policy::PolicyRegistration<cl::ShardSelectionSurface>
    kRegisterFirstShard{first_shard_entry()};

}  // namespace

// --- enumeration / registration rules ---------------------------------------

TEST(PolicyRegistry, CatalogEnumeratesEverySurface) {
  const auto surfaces = policy::describe_all_surfaces();
  ASSERT_GE(surfaces.size(), 5U);
  std::vector<std::string> names;
  for (const auto& surface : surfaces) {
    names.push_back(surface.surface);
    EXPECT_FALSE(surface.description.empty()) << surface.surface;
    EXPECT_GE(surface.policies.size(), 2U) << surface.surface;
    for (const auto& entry : surface.policies) {
      EXPECT_FALSE(entry.name.empty());
      EXPECT_FALSE(entry.description.empty()) << entry.name;
    }
  }
  for (const char* expected : {"admission", "placement", "shard-selection",
                               "migration", "revocation"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "surface '" << expected << "' missing from the catalog";
  }
}

TEST(PolicyRegistry, DuplicateEmptyAndNullRegistrationsRefused) {
  auto& registry = cl::ShardSelectionRegistry::instance();
  const std::size_t before = registry.size();

  // Duplicate primary name.
  EXPECT_FALSE(registry.add("p2c", "dup", [] {
    return std::make_unique<FirstShardSelector>();
  }));
  // Alias of an existing entry used as a primary name.
  EXPECT_FALSE(registry.add("power-of-two", "dup", [] {
    return std::make_unique<FirstShardSelector>();
  }));
  // New name carrying a colliding alias.
  EXPECT_FALSE(registry.add("fresh-name", "dup alias",
                            [] { return std::make_unique<FirstShardSelector>(); },
                            {"round-robin"}));
  // Empty name / null factory.
  EXPECT_FALSE(registry.add("", "anonymous", [] {
    return std::make_unique<FirstShardSelector>();
  }));
  EXPECT_FALSE(registry.add("null-make", "no factory",
                            cl::ShardSelectionSurface::Factory{}));

  EXPECT_EQ(registry.size(), before) << "refused adds must change nothing";
}

TEST(PolicyRegistry, AliasesResolveToTheirPrimaryEntry) {
  const auto& shard = cl::ShardSelectionRegistry::instance();
  EXPECT_EQ(shard.find("power-of-two"), shard.find("p2c"));
  ASSERT_NE(shard.find("p2c"), nullptr);
  EXPECT_EQ(shard.find("p2c")->name, "p2c");

  const auto& revocation = transient::RevocationRegistry::instance();
  EXPECT_EQ(revocation.find("price-crossing"), revocation.find("price"));

  const auto& admission = cl::AdmissionRegistry::instance();
  EXPECT_EQ(admission.find("price-threshold"), admission.find("price"));
  EXPECT_EQ(admission.find("bid-optimized"), admission.find("bid-opt"));

  // names() lists primary names only, sorted.
  const auto names = shard.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::find(names.begin(), names.end(), "power-of-two"),
            names.end());
}

// --- link-time plugin, end to end -------------------------------------------

TEST(PolicyRegistry, PluginSelectorRegisteredBeforeMain) {
  EXPECT_TRUE(kRegisterFirstShard.registered);
  const auto* entry =
      cl::ShardSelectionRegistry::instance().find("first-shard");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->description, "test plugin: always prefer shard 0");
}

TEST(PolicyRegistry, PluginSelectorDrivesShardedManager) {
  cl::ShardedClusterConfig config;
  config.cluster.server_count = 16;
  config.cluster.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  config.shard_count = 4;
  config.selection_name = "first-shard";
  cl::ClusterManager manager(config);

  // Shard 0 owns global servers 0..3 (64 cores): the plugin must steer
  // every placement there until the shard is full.
  for (std::uint64_t id = 1; id <= 16; ++id) {
    const cl::PlacementResult placed =
        manager.place_vm(make_spec(id, 4, 8192.0, false));
    ASSERT_TRUE(placed.ok()) << "vm " << id;
    EXPECT_LT(placed.host_id, 4U) << "vm " << id
                                  << " escaped shard 0 before it was full";
  }
  // Shard 0 full; the score-ordered fallback must still place the rest.
  const cl::PlacementResult spill =
      manager.place_vm(make_spec(17, 4, 8192.0, false));
  ASSERT_TRUE(spill.ok());
  EXPECT_GE(spill.host_id, 4U);
}

TEST(PolicyRegistry, PluginSelectorDrivesShardedSimulationEndToEnd) {
  const auto records = small_trace();
  sc::SimConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, config.server_capacity, 0.0);
  config.shard_count = 4;
  config.policies.shard_selection.name = "first-shard";

  sc::TraceDrivenSimulator simulator(records, config);
  const sc::SimMetrics metrics = simulator.run();
  EXPECT_EQ(metrics.vm_count, records.size());
  EXPECT_GT(metrics.vm_count, 0U);

  // Deterministic: the same plugin-driven config replays bit-identically.
  sc::TraceDrivenSimulator again(records, config);
  const sc::SimMetrics repeat = again.run();
  EXPECT_EQ(metrics.rejections, repeat.rejections);
  EXPECT_EQ(metrics.reclamation_failures, repeat.reclamation_failures);
  EXPECT_EQ(metrics.throughput_loss, repeat.throughput_loss);
}

TEST(PolicyRegistry, UnknownNamesThrowListingValidChoices) {
  cl::ShardedClusterConfig config;
  config.cluster.server_count = 4;
  config.shard_count = 2;
  config.selection_name = "no-such-policy";
  try {
    cl::ClusterManager manager(config);
    FAIL() << "unknown selection_name must throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos);
    EXPECT_NE(what.find("p2c"), std::string::npos)
        << "error must list the valid names: " << what;
  }
  EXPECT_THROW(cl::make_placement_scorer("bogus"), std::invalid_argument);
  EXPECT_THROW(transient::make_revocation_model("bogus"),
               std::invalid_argument);
  EXPECT_THROW((void)cl::make_migration_strategy("bogus"),
               std::invalid_argument);
  EXPECT_THROW(cl::make_shard_selector("bogus"), std::invalid_argument);
}

// --- per-surface legacy-enum vs registry-name bit-parity --------------------

TEST(PolicyRegistry, PlacementNamesMatchEnumsBitExact) {
  const struct {
    cl::PlacementStrategy strategy;
    const char* name;
  } cases[] = {{cl::PlacementStrategy::Fitness, "fitness"},
               {cl::PlacementStrategy::FirstFit, "first-fit"},
               {cl::PlacementStrategy::BestFit, "best-fit"},
               {cl::PlacementStrategy::WorstFit, "worst-fit"}};
  for (const auto& test_case : cases) {
    cl::ClusterConfig enum_config;
    enum_config.server_count = 12;
    enum_config.server_capacity = {16.0, 32768.0, 1e9, 1e9};
    enum_config.placement = test_case.strategy;
    cl::ClusterConfig named_config = enum_config;
    named_config.placement = cl::PlacementStrategy::Fitness;  // ignored
    named_config.placement_name = test_case.name;

    cl::ClusterManager by_enum(enum_config);
    cl::ClusterManager by_name(named_config);
    util::Rng rng(23);
    for (std::uint64_t id = 1; id <= 120; ++id) {
      const hv::VmSpec spec = random_spec(rng, id);
      const cl::PlacementResult a = by_enum.place_vm(spec);
      const cl::PlacementResult b = by_name.place_vm(spec);
      EXPECT_EQ(a.status, b.status) << test_case.name << " vm " << id;
      EXPECT_EQ(a.host_id, b.host_id) << test_case.name << " vm " << id;
      EXPECT_EQ(a.launch_fraction, b.launch_fraction)
          << test_case.name << " vm " << id;
    }
    EXPECT_EQ(by_enum.stats().placements, by_name.stats().placements)
        << test_case.name;
    EXPECT_EQ(by_enum.stats().rejections, by_name.stats().rejections)
        << test_case.name;
    EXPECT_EQ(by_enum.stats().deflated_launches,
              by_name.stats().deflated_launches)
        << test_case.name;
  }
}

TEST(PolicyRegistry, ShardSelectionNamesMatchEnumsBitExact) {
  const struct {
    cl::ShardSelectionPolicy policy;
    const char* name;
  } cases[] = {{cl::ShardSelectionPolicy::PowerOfTwoChoices, "p2c"},
               {cl::ShardSelectionPolicy::LeastLoaded, "least-loaded"},
               {cl::ShardSelectionPolicy::RoundRobin, "round-robin"}};
  for (const auto& test_case : cases) {
    cl::ShardedClusterConfig enum_config;
    enum_config.cluster.server_count = 24;
    enum_config.cluster.server_capacity = {16.0, 32768.0, 1e9, 1e9};
    enum_config.shard_count = 4;
    enum_config.selection = test_case.policy;
    cl::ShardedClusterConfig named_config = enum_config;
    named_config.selection = cl::ShardSelectionPolicy::PowerOfTwoChoices;
    named_config.selection_name = test_case.name;

    cl::ClusterManager by_enum(enum_config);
    cl::ClusterManager by_name(named_config);
    util::Rng rng(19);
    for (std::uint64_t id = 1; id <= 150; ++id) {
      const hv::VmSpec spec = random_spec(rng, id);
      const cl::PlacementResult a = by_enum.place_vm(spec);
      const cl::PlacementResult b = by_name.place_vm(spec);
      EXPECT_EQ(a.status, b.status) << test_case.name << " vm " << id;
      EXPECT_EQ(a.host_id, b.host_id) << test_case.name << " vm " << id;
      EXPECT_EQ(a.launch_fraction, b.launch_fraction)
          << test_case.name << " vm " << id;
    }
    EXPECT_EQ(by_enum.stats().placements, by_name.stats().placements);
    EXPECT_EQ(by_enum.stats().rejections, by_name.stats().rejections);
  }
}

TEST(PolicyRegistry, RevocationNamesMatchEnumsBitExact) {
  transient::SpotPriceConfig spot_config;
  const transient::PriceTrace prices =
      transient::SpotPriceModel(spot_config, 7).generate(
          sim::SimTime::from_hours(72));

  const struct {
    transient::RevocationModel model;
    const char* name;
  } cases[] = {{transient::RevocationModel::None, "none"},
               {transient::RevocationModel::Poisson, "poisson"},
               {transient::RevocationModel::TemporallyConstrained, "temporal"},
               {transient::RevocationModel::PriceCrossing, "price"}};
  for (const auto& test_case : cases) {
    transient::RevocationConfig enum_config;
    enum_config.model = test_case.model;
    transient::RevocationConfig named_config = enum_config;
    named_config.model = transient::RevocationModel::None;  // ignored
    named_config.model_name = test_case.name;

    transient::RevocationEngine by_enum(enum_config, 42);
    transient::RevocationEngine by_name(named_config, 42);
    by_enum.set_price_trace(&prices);
    by_name.set_price_trace(&prices);
    const sim::SimTime horizon = sim::SimTime::from_hours(72);
    for (const std::size_t server : {std::size_t{0}, std::size_t{3},
                                     std::size_t{17}}) {
      EXPECT_EQ(by_enum.schedule_for(server, horizon),
                by_name.schedule_for(server, horizon))
          << test_case.name << " server " << server;
    }
    EXPECT_EQ(by_enum.expected_rate_per_hour(),
              by_name.expected_rate_per_hour())
        << test_case.name;
  }
}

TEST(PolicyRegistry, MigrationStrategyNamesMatchFlagPairs) {
  const struct {
    const char* name;
    bool deflate_before_transfer;
    bool checkpoint_fallback;
  } cases[] = {{"migrate", false, false},
               {"checkpoint", false, true},
               {"deflate", true, false},
               {"hybrid", true, true}};
  for (const auto& test_case : cases) {
    const cl::MigrationStrategy strategy =
        cl::make_migration_strategy(test_case.name);
    EXPECT_EQ(strategy.deflate_before_transfer,
              test_case.deflate_before_transfer)
        << test_case.name;
    EXPECT_EQ(strategy.checkpoint_fallback, test_case.checkpoint_fallback)
        << test_case.name;
  }
  // The default is full-footprint pre-copy with checkpoint fallback.
  EXPECT_EQ(cl::MigrationEngineConfig{}.strategy_name, "checkpoint");
}

TEST(PolicyRegistry, SimulationPolicySetMatchesEnumConfigBitExact) {
  const auto records = small_trace();

  sc::SimConfig by_enum;
  by_enum.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  by_enum.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, by_enum.server_capacity, 0.3);
  by_enum.placement = cl::PlacementStrategy::BestFit;
  by_enum.shard_count = 3;
  by_enum.shard_selection = cl::ShardSelectionPolicy::RoundRobin;
  by_enum.market_enabled = true;
  by_enum.market.revocation.model = transient::RevocationModel::Poisson;

  sc::SimConfig by_name = by_enum;
  by_name.placement = cl::PlacementStrategy::Fitness;
  by_name.shard_selection = cl::ShardSelectionPolicy::PowerOfTwoChoices;
  by_name.market.revocation.model = transient::RevocationModel::None;
  by_name.policies.placement.name = "best-fit";
  by_name.policies.shard_selection.name = "round-robin";
  by_name.policies.revocation.name = "poisson";

  sc::TraceDrivenSimulator enum_sim(records, by_enum);
  const sc::SimMetrics a = enum_sim.run();
  sc::TraceDrivenSimulator name_sim(records, by_name);
  const sc::SimMetrics b = name_sim.run();

  EXPECT_EQ(a.reclamation_attempts, b.reclamation_attempts);
  EXPECT_EQ(a.reclamation_failures, b.reclamation_failures);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(a.revocation_migrations, b.revocation_migrations);
  EXPECT_EQ(a.revocation_kills, b.revocation_kills);
  EXPECT_EQ(a.failure_probability, b.failure_probability);
  EXPECT_EQ(a.throughput_loss, b.throughput_loss);
  EXPECT_EQ(a.mean_cpu_deflation, b.mean_cpu_deflation);
  EXPECT_EQ(a.cost.total_cost(), b.cost.total_cost());
  EXPECT_EQ(a.revenue.od_committed_core_hours,
            b.revenue.od_committed_core_hours);
  EXPECT_EQ(a.revenue.df_allocated_core_hours,
            b.revenue.df_allocated_core_hours);
}

TEST(PolicyRegistry, AdmissionControllerByNameMatchesEnumPath) {
  transient::SpotPriceConfig spot_config;
  const transient::PriceTrace prices =
      transient::SpotPriceModel(spot_config, 11).generate(
          sim::SimTime::from_hours(24));
  const std::vector<const transient::PriceTrace*> traces{&prices};

  cl::ClusterConfig cluster_config;
  cluster_config.server_count = 8;
  cluster_config.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  cl::ClusterManager manager_a(cluster_config);
  cl::ClusterManager manager_b(cluster_config);

  cl::AdmissionConfig admission;
  admission.policy = cl::AdmissionPolicyKind::PriceThreshold;
  auto by_enum = cl::make_admission_controller(admission, manager_a,
                                               cl::PriceFeed(traces, 1.0));
  auto by_name = cl::make_admission_controller_by_name(
      "price", admission, manager_b, cl::PriceFeed(traces, 1.0));

  util::Rng rng(5);
  for (std::uint64_t id = 1; id <= 60; ++id) {
    const hv::VmSpec spec = random_spec(rng, id);
    const sim::SimTime now =
        sim::SimTime::from_hours(0.3 * static_cast<double>(id));
    const auto request = cl::AdmissionRequest::from_spec(spec, now);
    const cl::AdmissionDecision a = by_enum->decide(request, now);
    const cl::AdmissionDecision b = by_name->decide(request, now);
    EXPECT_EQ(a.status, b.status) << "vm " << id;
    EXPECT_EQ(a.placement.host_id, b.placement.host_id) << "vm " << id;
    EXPECT_EQ(a.quoted_price, b.quoted_price) << "vm " << id;
  }
}

// --- PolicySet --------------------------------------------------------------

TEST(PolicySet, EmptySetValidatesClean) {
  policy::PolicySet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.validate().empty());
}

TEST(PolicySet, UnknownNamesAndParamsProduceOneLineErrors) {
  policy::PolicySet set;
  set.placement.name = "does-not-exist";
  set.revocation.name = "poisson";
  set.revocation.params = {{"rate", 0.5}};  // wrong: poisson_rate_per_hour
  set.migration.params = {{"orphan", 1.0}};  // params without a name

  const auto errors = set.validate();
  ASSERT_EQ(errors.size(), 3U);
  // Surfaces validate in catalog order: placement first here.
  EXPECT_NE(errors[0].find("placement"), std::string::npos) << errors[0];
  EXPECT_NE(errors[0].find("does-not-exist"), std::string::npos) << errors[0];
  EXPECT_NE(errors[0].find("best-fit"), std::string::npos)
      << "error must list valid choices: " << errors[0];

  bool saw_param_error = false, saw_orphan_error = false;
  for (const auto& error : errors) {
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    if (error.find("has no parameter 'rate'") != std::string::npos) {
      saw_param_error = true;
      EXPECT_NE(error.find("poisson_rate_per_hour"), std::string::npos)
          << error;
    }
    if (error.find("parameters given without a policy name") !=
        std::string::npos) {
      saw_orphan_error = true;
      EXPECT_NE(error.find("migration"), std::string::npos) << error;
    }
  }
  EXPECT_TRUE(saw_param_error);
  EXPECT_TRUE(saw_orphan_error);
}

TEST(PolicySet, KnownParamsValidateAndReadBack) {
  policy::PolicySet set;
  set.revocation.name = "poisson";
  set.revocation.params = {{"poisson_rate_per_hour", 0.125}};
  EXPECT_TRUE(set.validate().empty());
  EXPECT_EQ(set.revocation.param_or("poisson_rate_per_hour", 1.0), 0.125);
  EXPECT_EQ(set.revocation.param_or("absent", 9.5), 9.5);
  EXPECT_FALSE(set.empty());
}

TEST(PolicySet, SimulatorRejectsInvalidPolicySetUpFront) {
  const auto records = small_trace(50, 3);
  sc::SimConfig config;
  config.server_count = 10;
  config.policies.placement.name = "not-a-policy";
  try {
    sc::TraceDrivenSimulator simulator(records, config);
    FAIL() << "invalid PolicySet must throw at construction";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("placement"), std::string::npos) << what;
    EXPECT_NE(what.find("not-a-policy"), std::string::npos) << what;
  }
}

// --- concurrency (CI runs this suite under TSan) ----------------------------

TEST(PolicyRegistry, ConcurrentLookupEnumerationAndRegistrationAreSafe) {
  auto& registry = cl::ShardSelectionRegistry::instance();
  std::atomic<bool> go{false};
  std::atomic<int> found{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &go, &found] {
      while (!go.load()) {
      }
      for (int i = 0; i < 500; ++i) {
        const auto* entry = registry.find(i % 2 == 0 ? "p2c" : "power-of-two");
        if (entry != nullptr && entry->name == "p2c") found.fetch_add(1);
        (void)registry.names();
        (void)registry.entries();
        (void)policy::joined_policy_names<cl::ShardSelectionSurface>();
      }
    });
  }
  // Writers racing the readers: one duplicate (always refused) and one
  // stream of unique registrations.
  threads.emplace_back([&registry, &go] {
    while (!go.load()) {
    }
    for (int i = 0; i < 200; ++i) {
      EXPECT_FALSE(registry.add("p2c", "dup", [] {
        return std::make_unique<FirstShardSelector>();
      }));
    }
  });
  threads.emplace_back([&registry, &go] {
    while (!go.load()) {
    }
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(registry.add(
          "tsan-probe-" + std::to_string(i), "transient test entry",
          [] { return std::make_unique<FirstShardSelector>(); }));
    }
  });

  go.store(true);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(found.load(), 4 * 500);
  // Entries registered mid-flight are fully visible afterwards.
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(registry.find("tsan-probe-" + std::to_string(i)), nullptr);
  }
}
