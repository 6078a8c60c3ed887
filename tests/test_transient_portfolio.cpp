#include "transient/portfolio.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "transient/market.hpp"

namespace tn = deflate::transient;
namespace sim = deflate::sim;

namespace {

tn::MarketSpec cheap_market(double price = 0.2, double variance = 0.005,
                            double revocation_rate = 1.0 / 24.0) {
  tn::MarketSpec spec;
  spec.expected_price = price;
  spec.price_variance = variance;
  spec.revocation_rate_per_hour = revocation_rate;
  return spec;
}

/// Uniform pairwise price correlation 0.5 across `markets`: capacity
/// crunches of one provider move its markets together.
std::vector<std::vector<double>> crunch_correlation(
    const std::vector<tn::MarketSpec>& markets) {
  return tn::CorrelatedPriceModel::uniform_correlation(markets.size(), 0.5);
}

double weight_sum(const std::vector<double>& w) {
  return std::accumulate(w.begin(), w.end(), 0.0);
}

}  // namespace

TEST(Portfolio, WeightsSumToOneAndRespectFloor) {
  tn::PortfolioConfig config;
  config.on_demand_floor = 0.15;
  const tn::PortfolioManager manager(config);
  const std::vector<tn::MarketSpec> markets{cheap_market(0.2),
                                            cheap_market(0.4, 0.02, 1.0 / 6.0)};
  const auto result = manager.optimize(markets, crunch_correlation(markets));
  ASSERT_EQ(result.weights.size(), 3U);
  EXPECT_NEAR(weight_sum(result.weights), 1.0, 1e-9);
  EXPECT_GE(result.weights[0], config.on_demand_floor - 1e-9);
  for (const double w : result.weights) {
    EXPECT_GE(w, -1e-12);
    EXPECT_LE(w, 1.0 + 1e-12);
  }
}

TEST(Portfolio, CheapMarketDominatesWhenRiskIsFree) {
  tn::PortfolioConfig config;
  config.risk_aversion = 0.0;
  config.on_demand_floor = 0.1;
  config.revocation_penalty_core_hours = 0.0;
  const tn::PortfolioManager manager(config);
  const std::vector<tn::MarketSpec> markets{cheap_market(0.2)};
  const auto result = manager.optimize(markets, crunch_correlation(markets));
  // Pure cost minimization: everything but the floor goes transient.
  EXPECT_NEAR(result.weights[0], 0.1, 1e-6);
  EXPECT_NEAR(result.weights[1], 0.9, 1e-6);
  EXPECT_NEAR(result.expected_cost, 0.1 * 1.0 + 0.9 * 0.2, 1e-6);
  EXPECT_GT(result.expected_saving, 0.7);
}

TEST(Portfolio, RiskAversionShiftsTowardOnDemand) {
  const std::vector<tn::MarketSpec> markets{
      cheap_market(0.2, 0.05, 1.0 / 4.0)};  // volatile, flaky market
  tn::PortfolioConfig relaxed;
  relaxed.risk_aversion = 0.0;
  tn::PortfolioConfig nervous;
  nervous.risk_aversion = 50.0;
  const auto w_relaxed = tn::PortfolioManager(relaxed).optimize(
      markets, crunch_correlation(markets));
  const auto w_nervous = tn::PortfolioManager(nervous).optimize(
      markets, crunch_correlation(markets));
  EXPECT_GT(w_nervous.on_demand_weight(), w_relaxed.on_demand_weight());
}

TEST(Portfolio, FlakierMarketGetsLowerWeight) {
  tn::PortfolioConfig config;
  config.risk_aversion = 5.0;
  const std::vector<tn::MarketSpec> markets{
      cheap_market(0.25, 0.005, 1.0 / 48.0),  // stable
      cheap_market(0.25, 0.05, 1.0 / 4.0)};   // same price, flaky
  const auto result = tn::PortfolioManager(config).optimize(
      markets, crunch_correlation(markets));
  EXPECT_GT(result.weights[1], result.weights[2]);
}

TEST(Portfolio, DeterministicAcrossCalls) {
  const std::vector<tn::MarketSpec> markets{cheap_market(0.3, 0.01),
                                            cheap_market(0.2, 0.02)};
  const tn::PortfolioManager manager(tn::PortfolioConfig{});
  const auto a = manager.optimize(markets, crunch_correlation(markets));
  const auto b = manager.optimize(markets, crunch_correlation(markets));
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.weights[i], b.weights[i]);
  }
}

TEST(Portfolio, EmptyMarketsThrows) {
  const tn::PortfolioManager manager(tn::PortfolioConfig{});
  EXPECT_THROW(manager.optimize({}, {}), std::invalid_argument);
}

TEST(Portfolio, PoolWeightsSplitTransientShare) {
  tn::PortfolioConfig config;
  const tn::PortfolioManager manager(config);
  tn::PortfolioResult result;
  result.weights = {0.4, 0.6};
  const auto pools = manager.pool_weights(result, 4);
  ASSERT_EQ(pools.size(), 5U);
  EXPECT_NEAR(pools[0], 0.4, 1e-12);
  for (std::size_t k = 1; k < pools.size(); ++k) {
    EXPECT_NEAR(pools[k], 0.15, 1e-12);
  }
  EXPECT_NEAR(weight_sum(pools), 1.0, 1e-12);

  // Weighted split.
  const std::vector<double> mix{1.0, 2.0, 3.0, 4.0};
  const auto weighted = manager.pool_weights(result, 4, mix);
  EXPECT_NEAR(weighted[1], 0.6 * 0.1, 1e-12);
  EXPECT_NEAR(weighted[4], 0.6 * 0.4, 1e-12);
  EXPECT_NEAR(weight_sum(weighted), 1.0, 1e-12);
}

TEST(Portfolio, MarketFromObservationsMatchesTrace) {
  tn::SpotPriceConfig price_config;
  price_config.mean_price = 0.3;
  const auto trace = tn::SpotPriceModel(price_config, 17).generate(
      sim::SimTime::from_hours(200));
  tn::RevocationConfig revocation_config;
  revocation_config.model = tn::RevocationModel::Poisson;
  revocation_config.poisson_rate_per_hour = 0.05;
  const tn::RevocationEngine engine(revocation_config, 17);
  const auto spec =
      tn::MarketSpec::from_observations("spot", trace, engine);
  EXPECT_DOUBLE_EQ(spec.expected_price, trace.mean());
  EXPECT_DOUBLE_EQ(spec.price_variance, trace.variance());
  EXPECT_DOUBLE_EQ(spec.revocation_rate_per_hour, 0.05);
}

TEST(MarketEngine, PlanSplitsFleetAndSchedulesOnlyTransients) {
  tn::MarketEngineConfig config;
  config.revocation.model = tn::RevocationModel::Poisson;
  config.revocation.poisson_rate_per_hour = 1.0 / 12.0;
  config.portfolio.on_demand_floor = 0.2;
  config.seed = 4;
  const tn::TransientMarketEngine engine(config);
  const auto plan = engine.plan(40, sim::SimTime::from_hours(72));

  EXPECT_GE(plan.on_demand_servers, 40 * 0.2 - 1);
  EXPECT_EQ(plan.on_demand_servers + plan.transient_servers.size(), 40U);
  EXPECT_NEAR(weight_sum(plan.pool_weights), 1.0, 1e-9);
  for (const auto& event : plan.revocations) {
    EXPECT_GE(event.server, plan.on_demand_servers);
  }
  ASSERT_EQ(plan.markets.size(), 1U);
  EXPECT_FALSE(plan.markets[0].prices.empty());
}

TEST(MarketEngine, CostReportBeatsOnDemandAndAddsUp) {
  tn::MarketEngineConfig config;
  config.revocation.model = tn::RevocationModel::Poisson;
  config.seed = 4;
  const tn::TransientMarketEngine engine(config);
  const sim::SimTime horizon = sim::SimTime::from_hours(72);
  const auto plan = engine.plan(40, horizon);
  const auto report = engine.cost_report(plan, 48.0, horizon);

  EXPECT_GT(report.all_on_demand_cost, 0.0);
  EXPECT_GT(report.total_cost(), 0.0);
  // The mix holds cheap spot capacity, so it must undercut on-demand.
  EXPECT_LT(report.total_cost(), report.all_on_demand_cost);
  EXPECT_GT(report.saving_percent(), 0.0);
  // Held transient core-hours can't exceed fleet * horizon.
  const double max_core_hours =
      static_cast<double>(plan.transient_servers.size()) * 48.0 *
      horizon.hours();
  EXPECT_LE(report.transient_core_hours, max_core_hours + 1e-6);
  EXPECT_DOUBLE_EQ(report.total_cost(),
                   report.on_demand_cost + report.transient_cost);
}
