// Multi-market transient portfolios: the correlated price model, the
// per-market planning/billing of TransientMarketEngine, and the degenerate
// correlation cases the design promises —
//   * K=1 reproduces the legacy single-market plan decision-for-decision,
//   * identity correlation gives independent markets (distinct traces,
//     distinct price-crossing revocation streams),
//   * correlation 1.0 makes every market revoke together under
//     price-crossing,
//   * 3 partially-correlated markets cut the across-seed cost variance of
//     the same fleet without raising its mean cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "transient/market.hpp"

namespace tn = deflate::transient;
namespace sc = deflate::simcluster;
namespace tr = deflate::trace;
using deflate::sim::SimTime;

namespace {

tn::SpotPriceConfig quiet_price(double volatility = 0.08) {
  tn::SpotPriceConfig price;
  price.volatility = volatility;
  price.shock_rate_per_hour = 0.0;  // pure OU: identical innovations
                                    // mean identical traces
  return price;
}

/// K copies of one market, price-crossing revocations, uniform correlation.
tn::MarketEngineConfig crossing_config(std::size_t market_count, double rho,
                                       double bid = 0.35) {
  tn::MarketEngineConfig config;
  config.price = quiet_price();
  config.revocation.model = tn::RevocationModel::PriceCrossing;
  config.revocation.bid = bid;
  config.replicate_markets(market_count, rho, "market");
  config.use_portfolio = false;  // equal per-market weights
  config.on_demand_share = 0.25;
  config.seed = 21;
  return config;
}

/// Sorted revoke timestamps of one market (price-crossing schedules are
/// market-wide, so any one server carries the market's crossing times).
std::vector<SimTime> revoke_times(const tn::MarketPlan& market) {
  std::vector<SimTime> times;
  if (market.servers.empty()) return times;
  const std::size_t witness = market.servers.front();
  for (const tn::RevocationEvent& event : market.revocations) {
    if (event.server == witness && event.revoke) times.push_back(event.at);
  }
  return times;
}

/// FNV-1a over the bit patterns of a trace's samples: one 64-bit word per
/// sample, so any last-bit change in any sample changes the hash.
std::uint64_t sample_hash(const tn::PriceTrace& trace) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double sample : trace.samples()) {
    hash ^= std::bit_cast<std::uint64_t>(sample);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

// --- CorrelatedPriceModel ---------------------------------------------------

// The one-market OU + shock process, pinned to hashes recorded from the
// standalone single-market recurrence SpotPriceModel used before it became
// a one-market CorrelatedPriceModel. Covers the shock branch, a zero shock
// decay, and both clamps.
TEST(CorrelatedPrice, SingleMarketMatchesRecordedGolden) {
  struct Case {
    const char* name;
    tn::SpotPriceConfig config;
  };
  std::vector<Case> cases(4);
  cases[0].name = "defaults";
  cases[1].name = "no-shocks";
  cases[1].config.shock_rate_per_hour = 0.0;
  cases[2].name = "zero-decay";
  cases[2].config.shock_decay_hours = 0.0;
  cases[3].name = "clamped";
  cases[3].config.volatility = 0.6;
  cases[3].config.shock_rate_per_hour = 0.25;
  cases[3].config.shock_multiplier = 12.0;
  const std::pair<std::uint64_t, std::uint64_t> keys[] = {{7, 0}, {7, 1},
                                                          {11, 0}};
  const std::uint64_t golden[4][3] = {
      {0x0269495b845192c2ULL, 0x3e75dc79b3edb530ULL, 0xf6aa7cd159b61f92ULL},
      {0xc5c4dd9b9dadd87cULL, 0x5b7860711c717f8dULL, 0xce6954a9c4d2b451ULL},
      {0x931cbc02fd07fc54ULL, 0x170a8ebdad350f93ULL, 0x3fbceb379ee33b01ULL},
      {0x4f730f6bcf6389cfULL, 0xd82a087bb4ef0c9aULL, 0x006aeb9a16f88409ULL},
  };
  const SimTime horizon = SimTime::from_hours(96);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t k = 0; k < 3; ++k) {
      const tn::PriceTrace trace =
          tn::SpotPriceModel(cases[c].config, keys[k].first, keys[k].second)
              .generate(horizon);
      ASSERT_EQ(trace.samples().size(), 96U * 12U);
      EXPECT_EQ(sample_hash(trace), golden[c][k])
          << cases[c].name << " seed " << keys[k].first << " stream "
          << keys[k].second << ": 0x" << std::hex << sample_hash(trace);
    }
  }
  // The clamped case really reaches the floor and the 2x on-demand cap.
  const tn::SpotPriceConfig& clamped = cases[3].config;
  const tn::PriceTrace trace =
      tn::SpotPriceModel(clamped, 7, 0).generate(horizon);
  EXPECT_EQ(trace.min(), clamped.floor_price);
  EXPECT_EQ(trace.max(), 2.0 * clamped.on_demand_price);
}

TEST(CorrelatedPrice, CholeskyReconstructsTheCorrelation) {
  const auto matrix = tn::CorrelatedPriceModel::uniform_correlation(4, 0.4);
  const auto factor = tn::CorrelatedPriceModel::cholesky(matrix);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double reconstructed = 0.0;
      for (std::size_t k = 0; k < 4; ++k) {
        reconstructed += factor[i][k] * factor[j][k];
      }
      EXPECT_NEAR(reconstructed, matrix[i][j], 1e-12);
    }
  }
  // Rank-deficient (perfect correlation) is legal, not an error.
  const auto ones = tn::CorrelatedPriceModel::uniform_correlation(3, 1.0);
  const auto deficient = tn::CorrelatedPriceModel::cholesky(ones);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(deficient[i][0], 1.0);
    for (std::size_t j = 1; j < 3; ++j) EXPECT_DOUBLE_EQ(deficient[i][j], 0.0);
  }
}

TEST(CorrelatedPrice, RejectsMalformedInput) {
  tn::CorrelatedPriceConfig config;
  EXPECT_THROW(tn::CorrelatedPriceModel(config).generate(SimTime::from_hours(1)),
               std::invalid_argument);  // no markets
  config.markets = {quiet_price(), quiet_price()};
  config.markets[1].step = SimTime::from_minutes(10);
  EXPECT_THROW(tn::CorrelatedPriceModel(config).generate(SimTime::from_hours(1)),
               std::invalid_argument);  // mismatched steps
  config.markets[1].step = config.markets[0].step;
  config.correlation = {{1.0}};
  EXPECT_THROW(tn::CorrelatedPriceModel(config).generate(SimTime::from_hours(1)),
               std::invalid_argument);  // 1x1 correlation for 2 markets
  config.correlation = {{2.0, 0.0}, {0.0, 2.0}};
  EXPECT_THROW(tn::CorrelatedPriceModel(config).generate(SimTime::from_hours(1)),
               std::invalid_argument);  // covariance, not correlation
}

TEST(CorrelatedPrice, CommonShockSpikesEveryMarketTogether) {
  tn::CorrelatedPriceConfig config;
  config.markets = {quiet_price(0.01), quiet_price(0.01)};
  config.common_shock_rate_per_hour = 1.0 / 12.0;
  const auto traces =
      tn::CorrelatedPriceModel(config, 5).generate(SimTime::from_hours(96));
  // A crunch lifts the price far above the quiet OU band; whenever one
  // market is deep in a crunch the other must be too (the band gap between
  // 3x and 2x mean absorbs the independent OU noise around the shared
  // shock level).
  const double high = 3.0 * config.markets[0].mean_price;
  const double low = 2.0 * config.markets[0].mean_price;
  std::size_t spikes = 0;
  for (std::size_t i = 0; i < traces[0].samples().size(); ++i) {
    const double a = traces[0].samples()[i];
    const double b = traces[1].samples()[i];
    if (a > high) {
      EXPECT_GT(b, low) << "common shock diverged at step " << i;
      ++spikes;
    }
    if (b > high) {
      EXPECT_GT(a, low) << "common shock diverged at step " << i;
    }
  }
  EXPECT_GT(spikes, 0U);
}

// --- degenerate correlation cases -------------------------------------------

TEST(MultiMarket, SingleEntryMarketListReproducesLegacyPlan) {
  tn::MarketEngineConfig legacy;
  legacy.revocation.model = tn::RevocationModel::Poisson;
  legacy.revocation.poisson_rate_per_hour = 1.0 / 18.0;
  legacy.portfolio.on_demand_floor = 0.2;
  legacy.seed = 99;

  tn::MarketEngineConfig listed = legacy;
  listed.markets = {tn::MarketDef{"spot", legacy.price, legacy.revocation}};

  const tn::TransientMarketEngine a(legacy);
  const tn::TransientMarketEngine b(listed);
  const SimTime horizon = SimTime::from_hours(72);
  const auto plan_a = a.plan(60, horizon);
  const auto plan_b = b.plan(60, horizon);

  ASSERT_EQ(plan_a.markets.size(), 1U);
  ASSERT_EQ(plan_b.markets.size(), 1U);
  EXPECT_EQ(plan_a.markets[0].prices.samples(),
            plan_b.markets[0].prices.samples());
  EXPECT_EQ(plan_a.planned_correlation, plan_b.planned_correlation);
  EXPECT_EQ(plan_a.on_demand_servers, plan_b.on_demand_servers);
  EXPECT_EQ(plan_a.transient_servers, plan_b.transient_servers);
  EXPECT_EQ(plan_a.revocations, plan_b.revocations);
  ASSERT_EQ(plan_a.portfolio.weights.size(), plan_b.portfolio.weights.size());
  for (std::size_t i = 0; i < plan_a.portfolio.weights.size(); ++i) {
    EXPECT_EQ(plan_a.portfolio.weights[i], plan_b.portfolio.weights[i]);
  }
  EXPECT_EQ(plan_a.pool_weights, plan_b.pool_weights);
  EXPECT_EQ(plan_a.markets[0].servers, plan_b.markets[0].servers);

  const auto cost_a = a.cost_report(plan_a, 48.0, horizon);
  const auto cost_b = b.cost_report(plan_b, 48.0, horizon);
  EXPECT_EQ(cost_a.total_cost(), cost_b.total_cost());
  EXPECT_EQ(cost_a.transient_core_hours, cost_b.transient_core_hours);
  EXPECT_EQ(cost_a.all_on_demand_cost, cost_b.all_on_demand_cost);
}

TEST(MultiMarket, IdentityCorrelationGivesIndependentMarkets) {
  const tn::TransientMarketEngine engine(crossing_config(3, 0.0));
  const auto plan = engine.plan(33, SimTime::from_hours(96));
  ASSERT_EQ(plan.markets.size(), 3U);
  for (const tn::MarketPlan& market : plan.markets) {
    ASSERT_FALSE(market.servers.empty());
  }
  // Independent innovations: every pair of traces differs, and so do the
  // bid-crossing revocation streams derived from them.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      EXPECT_NE(plan.markets[i].prices.samples(),
                plan.markets[j].prices.samples());
      EXPECT_NE(revoke_times(plan.markets[i]), revoke_times(plan.markets[j]));
    }
  }
  // The markets do revoke (the bid is inside the OU band).
  std::size_t revokes = 0;
  for (const auto& event : plan.revocations) revokes += event.revoke;
  EXPECT_GT(revokes, 0U);
}

TEST(MultiMarket, PerfectCorrelationRevokesMarketsTogether) {
  const tn::TransientMarketEngine engine(crossing_config(3, 1.0));
  const auto plan = engine.plan(33, SimTime::from_hours(96));
  ASSERT_EQ(plan.markets.size(), 3U);
  // One shared factor, identical per-market parameters: the traces are bit
  // for bit the same, so every market crosses the bid at the same instants
  // — the correlated crunch the portfolio is supposed to diversify away.
  EXPECT_EQ(plan.markets[0].prices.samples(), plan.markets[1].prices.samples());
  EXPECT_EQ(plan.markets[0].prices.samples(), plan.markets[2].prices.samples());
  const auto times = revoke_times(plan.markets[0]);
  ASSERT_FALSE(times.empty());
  EXPECT_EQ(times, revoke_times(plan.markets[1]));
  EXPECT_EQ(times, revoke_times(plan.markets[2]));
}

TEST(MultiMarket, ThreeMarketsCutCostVarianceWithoutRaisingMean) {
  // Same fleet, same fixed 30% on-demand split, provider-wide crunches:
  // diversification across 3 partially-correlated markets must shrink the
  // across-seed cost spread while holding the mean.
  auto single = crossing_config(1, 0.0, /*bid=*/0.6);
  auto multi = crossing_config(3, 0.35, /*bid=*/0.6);
  for (auto* config : {&single, &multi}) {
    config->on_demand_share = 0.3;
    config->common_shock_rate_per_hour = 1.0 / 36.0;
    config->common_shock_decay_hours = 2.0;
  }

  const SimTime horizon = SimTime::from_hours(72);
  const auto sweep = [&](tn::MarketEngineConfig config) {
    std::vector<double> costs;
    for (std::uint64_t seed = 500; seed < 512; ++seed) {
      config.seed = seed;
      const tn::TransientMarketEngine engine(config);
      const auto plan = engine.plan(60, horizon);
      costs.push_back(engine.cost_report(plan, 48.0, horizon).total_cost());
    }
    double mean = 0.0, var = 0.0;
    for (const double c : costs) mean += c;
    mean /= static_cast<double>(costs.size());
    for (const double c : costs) var += (c - mean) * (c - mean);
    var /= static_cast<double>(costs.size());
    return std::pair{mean, var};
  };
  const auto [mean_1, var_1] = sweep(single);
  const auto [mean_3, var_3] = sweep(multi);
  EXPECT_LT(var_3, var_1);
  EXPECT_LE(mean_3, mean_1 * 1.02);
}

// --- plan bookkeeping -------------------------------------------------------

TEST(MultiMarket, PlanSplitsTransientFleetByPortfolioWeight) {
  tn::MarketEngineConfig config = crossing_config(3, 0.2);
  config.use_portfolio = true;
  config.portfolio.on_demand_floor = 0.1;
  const tn::TransientMarketEngine engine(config);
  const auto plan = engine.plan(50, SimTime::from_hours(72));

  // The market slices partition the transient set, in order.
  std::vector<std::size_t> joined;
  for (const tn::MarketPlan& market : plan.markets) {
    joined.insert(joined.end(), market.servers.begin(), market.servers.end());
  }
  EXPECT_EQ(joined, plan.transient_servers);
  // Weights sum to 1 across on-demand + markets.
  double total = plan.portfolio.on_demand_weight();
  for (const tn::MarketPlan& market : plan.markets) total += market.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Merged schedule references transient servers only.
  const std::set<std::size_t> transient(plan.transient_servers.begin(),
                                        plan.transient_servers.end());
  for (const tn::RevocationEvent& event : plan.revocations) {
    EXPECT_TRUE(transient.count(event.server));
  }
}

TEST(MultiMarket, RebindRealignsMarketSlicesAndSchedules) {
  tn::MarketEngineConfig config = crossing_config(2, 0.2);
  const tn::TransientMarketEngine engine(config);
  const SimTime horizon = SimTime::from_hours(72);
  auto plan = engine.plan(20, horizon);

  // Pretend partition rounding scattered the on-demand pool: odd servers
  // stay on-demand, evens ride the markets.
  std::vector<std::size_t> transient;
  for (std::size_t s = 0; s < 20; s += 2) transient.push_back(s);
  engine.rebind_transient_servers(plan, 10, transient, horizon);

  EXPECT_EQ(plan.on_demand_servers, 10U);
  EXPECT_EQ(plan.transient_servers, transient);
  std::vector<std::size_t> joined;
  for (const tn::MarketPlan& market : plan.markets) {
    joined.insert(joined.end(), market.servers.begin(), market.servers.end());
  }
  EXPECT_EQ(joined, transient);
  for (const tn::RevocationEvent& event : plan.revocations) {
    EXPECT_EQ(event.server % 2, 0U);
  }
  // The rebound schedule is exactly what a fresh engine generates for the
  // same per-market slices (keyed streams are placement-independent).
  EXPECT_FALSE(plan.revocations.empty());
}

TEST(MultiMarket, CostReportAttributesPerMarket) {
  const tn::TransientMarketEngine engine(crossing_config(3, 0.35));
  const SimTime horizon = SimTime::from_hours(72);
  const auto plan = engine.plan(40, horizon);
  const auto report = engine.cost_report(plan, 48.0, horizon);

  ASSERT_EQ(report.per_market.size(), 3U);
  double cost = 0.0, core_hours = 0.0;
  std::size_t servers = 0;
  for (const auto& market : report.per_market) {
    cost += market.cost;
    core_hours += market.core_hours;
    servers += market.servers;
  }
  EXPECT_DOUBLE_EQ(cost, report.transient_cost);
  EXPECT_DOUBLE_EQ(core_hours, report.transient_core_hours);
  EXPECT_EQ(servers, plan.transient_servers.size());
  EXPECT_LT(report.total_cost(), report.all_on_demand_cost);
}

// --- the plan rules the control plane shares ---------------------------------

TEST(PlanRules, MarketSeedKeepsMarketZeroOnThePlanSeed) {
  EXPECT_EQ(tn::market_seed(42, 0), 42U);
  EXPECT_EQ(tn::market_seed(42, 1), 42U + 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(tn::market_seed(42, 3), 42U + 3 * 0x9e3779b97f4a7c15ULL);
}

TEST(PlanRules, SplitCountsRoundsByLargestRemainder) {
  // 10 x {0.5, 0.3, 0.2} is exact.
  EXPECT_EQ(tn::split_counts(10, {0.5, 0.3, 0.2}),
            (std::vector<std::size_t>{5, 3, 2}));
  // Weights need not sum to one: 7 x {2/6, 1/6, 3/6} = {2.33, 1.17, 3.5},
  // floors {2, 1, 3}, the leftover server goes to the largest remainder.
  EXPECT_EQ(tn::split_counts(7, {2.0, 1.0, 3.0}),
            (std::vector<std::size_t>{2, 1, 4}));
  // Negative weights count as zero.
  EXPECT_EQ(tn::split_counts(4, {-1.0, 1.0}),
            (std::vector<std::size_t>{0, 4}));
}

TEST(PlanRules, SplitCountsZeroWeightPutsEverythingInMarketZero) {
  EXPECT_EQ(tn::split_counts(9, {0.0, 0.0, 0.0}),
            (std::vector<std::size_t>{9, 0, 0}));
  EXPECT_EQ(tn::split_counts(9, {-0.5, 0.0}),
            (std::vector<std::size_t>{9, 0}));
  EXPECT_EQ(tn::split_counts(0, {0.2, 0.8}),
            (std::vector<std::size_t>{0, 0}));
  EXPECT_TRUE(tn::split_counts(5, {}).empty());
}

TEST(PlanRules, SplitCountsTiesGoToTheLowerIndex) {
  // Three equal remainders of 1/3 and one server left over: market 0.
  EXPECT_EQ(tn::split_counts(1, {1.0, 1.0, 1.0}),
            (std::vector<std::size_t>{1, 0, 0}));
  // Two left over: markets 0 and 1.
  EXPECT_EQ(tn::split_counts(5, {1.0, 1.0, 1.0}),
            (std::vector<std::size_t>{2, 2, 1}));
  EXPECT_EQ(tn::split_counts(3, {1.0, 1.0}),
            (std::vector<std::size_t>{2, 1}));
}

TEST(PlanRules, ApplyOptimizedBidsOverwritesOnlyListedMarkets) {
  std::vector<tn::MarketDef> defs(3);
  for (tn::MarketDef& def : defs) def.revocation.bid = 0.5;
  tn::apply_optimized_bids(defs, {});
  for (const tn::MarketDef& def : defs) EXPECT_EQ(def.revocation.bid, 0.5);
  tn::apply_optimized_bids(defs, {0.2, 0.3});
  EXPECT_EQ(defs[0].revocation.bid, 0.2);
  EXPECT_EQ(defs[1].revocation.bid, 0.3);
  EXPECT_EQ(defs[2].revocation.bid, 0.5);
}

namespace {

std::vector<tn::ClassBid> class_bids(const std::vector<double>& bids) {
  std::vector<tn::ClassBid> out(bids.size());
  for (std::size_t c = 0; c < bids.size(); ++c) {
    out[c].priority_class = c;
    out[c].bid = bids[c];
  }
  return out;
}

}  // namespace

TEST(PlanRules, BlendClassBidsAveragesByWeight) {
  const std::vector<std::vector<tn::ClassBid>> bids = {
      class_bids({1.0, 0.2, 0.4}), class_bids({1.0, 0.6, 0.8})};
  const std::vector<double> blended = tn::blend_class_bids(bids, {3.0, 1.0});
  ASSERT_EQ(blended.size(), 3U);
  EXPECT_DOUBLE_EQ(blended[0], 1.0);
  EXPECT_DOUBLE_EQ(blended[1], 0.75 * 0.2 + 0.25 * 0.6);
  EXPECT_DOUBLE_EQ(blended[2], 0.75 * 0.4 + 0.25 * 0.8);
  // A negative weight counts as zero.
  const std::vector<double> one_sided = tn::blend_class_bids(bids, {-1.0, 2.0});
  EXPECT_DOUBLE_EQ(one_sided[1], 0.6);
}

TEST(PlanRules, BlendClassBidsWithoutPositiveWeightIsUniform) {
  const std::vector<std::vector<tn::ClassBid>> bids = {
      class_bids({1.0, 0.1}), class_bids({1.0, 0.4}), class_bids({1.0, 0.7})};
  for (const std::vector<double>& weights :
       {std::vector<double>{0.0, 0.0, 0.0},
        std::vector<double>{-1.0, 0.0, -2.0}}) {
    const std::vector<double> blended = tn::blend_class_bids(bids, weights);
    ASSERT_EQ(blended.size(), 2U);
    EXPECT_DOUBLE_EQ(blended[1], (0.1 + 0.4 + 0.7) / 3.0);
  }
}

TEST(PlanRules, BlendClassBidsDropsClassesAMarketLacks) {
  const std::vector<double> blended = tn::blend_class_bids(
      {class_bids({1.0, 0.2, 0.4}), class_bids({1.0, 0.6})}, {1.0, 1.0});
  ASSERT_EQ(blended.size(), 2U);
  EXPECT_DOUBLE_EQ(blended[1], 0.4);
  EXPECT_TRUE(tn::blend_class_bids({}, {}).empty());
}

TEST(PlanRules, StateChangesKeepsOnlyToggles) {
  const auto at = [](double hours) { return SimTime::from_hours(hours); };
  // Spliced schedule of one server: a restore while held, two revokes in
  // a row, and two restores in a row are the junction's repairs.
  const std::vector<tn::RevocationEvent> events = {
      {at(1), 7, false}, {at(2), 7, true},  {at(3), 7, true},
      {at(4), 7, false}, {at(5), 7, false}, {at(6), 7, true}};
  const std::vector<tn::RevocationEvent> expected = {
      {at(2), 7, true}, {at(4), 7, false}, {at(6), 7, true}};
  EXPECT_EQ(tn::state_changes(events), expected);
  // An alternating schedule starting with a revoke is its own repair.
  EXPECT_EQ(tn::state_changes(expected), expected);
  EXPECT_TRUE(tn::state_changes({}).empty());
  EXPECT_TRUE(tn::state_changes({{at(1), 7, false}}).empty());
}

// --- end-to-end through the trace-driven simulator --------------------------

TEST(MultiMarket, EndToEndSimulationSpreadsRevocationsAcrossMarkets) {
  tr::AzureTraceConfig trace_config;
  trace_config.vm_count = 300;
  trace_config.seed = 77;
  trace_config.duration = SimTime::from_hours(48);
  const auto records = tr::AzureTraceGenerator(trace_config).generate();

  sc::SimConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, config.server_capacity, -0.25);
  config.market_enabled = true;
  config.market.seed = 13;
  config.market.revocation.model = tn::RevocationModel::Poisson;
  config.market.revocation.poisson_rate_per_hour = 1.0 / 18.0;
  config.market.replicate_markets(3, 0.35, "zone");
  config.market.portfolio.on_demand_floor = 0.25;

  sc::TraceDrivenSimulator simulator(records, config);
  const auto metrics = simulator.run();
  EXPECT_GT(metrics.revocations, 0U);
  EXPECT_GT(metrics.revocation_migrations + metrics.revocation_kills, 0U);
  EXPECT_GT(metrics.transient_server_share, 0.0);
  EXPECT_LT(metrics.transient_server_share, 1.0);
  ASSERT_EQ(metrics.cost.per_market.size(), 3U);
  EXPECT_LT(metrics.cost.total_cost(), metrics.cost.all_on_demand_cost);

  // Same config, partitioned + sharded: the realigned multi-market plan
  // still runs end-to-end and still trades.
  auto sharded = config;
  sharded.partitioned = true;
  sharded.shard_count = 4;
  sc::TraceDrivenSimulator sharded_sim(records, sharded);
  const auto sharded_metrics = sharded_sim.run();
  EXPECT_GT(sharded_metrics.revocations, 0U);
  EXPECT_GT(sharded_metrics.transient_server_share, 0.0);
}
