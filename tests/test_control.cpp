// Online control plane (src/control/): estimator degeneracy contract,
// the "control" registry surface, and the simulator parity invariants
// ISSUE 10 pins — a disabled (or inert) controller must reproduce the
// one-shot t=0 path bit for bit.
//
// Degeneracy contract under test: a window with no usable signal — zero
// revocations, zero held hours, fewer than two price samples, a constant
// trace, a single market — yields a *missing* observation and the
// forecast falls back through the policy chain to the planned value.
// Nothing here may produce NaN or throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "control/controller.hpp"
#include "control/estimators.hpp"
#include "control/forecast.hpp"
#include "policy/catalog.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "transient/bidding.hpp"
#include "transient/market.hpp"

namespace ctl = deflate::control;
namespace sc = deflate::simcluster;
namespace tn = deflate::transient;
namespace tr = deflate::trace;

namespace {

using Matrix = std::vector<std::vector<double>>;

void expect_correlation_matrix(const Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    ASSERT_EQ(m[i].size(), m.size());
    EXPECT_DOUBLE_EQ(m[i][i], 1.0);
    for (std::size_t j = 0; j < m.size(); ++j) {
      EXPECT_TRUE(std::isfinite(m[i][j])) << i << "," << j;
      EXPECT_GE(m[i][j], -1.0);
      EXPECT_LE(m[i][j], 1.0);
      EXPECT_NEAR(m[i][j], m[j][i], 1e-12);
    }
  }
}

double quadratic_form(const Matrix& m, const std::vector<double>& v) {
  double sum = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) sum += v[i] * m[i][j] * v[j];
  }
  return sum;
}

}  // namespace

// ---------------------------------------------------------------------------
// psd_project

TEST(PsdProject, IndefiniteMatrixLandsInThePsdCone) {
  // Pairwise entries that no joint distribution can realize: A~B and B~C
  // strongly positive while A~C is strongly negative. The raw matrix has
  // a negative eigenvalue (direction ~[1, -1, 1]).
  const Matrix raw = {{1.0, 0.9, -0.9}, {0.9, 1.0, 0.9}, {-0.9, 0.9, 1.0}};
  EXPECT_LT(quadratic_form(raw, {1.0, -1.0, 1.0}), 0.0);

  const Matrix projected = ctl::psd_project(raw);
  expect_correlation_matrix(projected);
  // Spot-check the quadratic form over a deterministic vector set — the
  // projection must be PSD in every direction, including the one the raw
  // matrix failed on.
  const std::vector<std::vector<double>> probes = {
      {1.0, -1.0, 1.0}, {1.0, 1.0, 1.0},  {1.0, 0.0, -1.0},
      {0.3, -0.7, 0.2}, {1.0, 2.0, -3.0}, {-1.0, 0.5, 0.5}};
  for (const auto& v : probes) {
    EXPECT_GE(quadratic_form(projected, v), -1e-9);
  }
}

TEST(PsdProject, RankDeficientMatrixPassesThrough) {
  // Two perfectly correlated markets: already PSD (eigenvalues {2, 0}),
  // so projection must be the identity map up to round-off.
  const Matrix perfect = {{1.0, 1.0}, {1.0, 1.0}};
  const Matrix projected = ctl::psd_project(perfect);
  expect_correlation_matrix(projected);
  EXPECT_NEAR(projected[0][1], 1.0, 1e-9);
}

TEST(PsdProject, TrivialOrdersAreExact) {
  EXPECT_TRUE(ctl::psd_project({}).empty());
  const Matrix one = ctl::psd_project({{0.25}});
  ASSERT_EQ(one.size(), 1U);
  EXPECT_DOUBLE_EQ(one[0][0], 1.0);
}

// ---------------------------------------------------------------------------
// window_mean_variance

TEST(WindowStats, ShortWindowIsMissingNotZero) {
  EXPECT_FALSE(ctl::window_mean_variance({}).has_value());
  EXPECT_FALSE(ctl::window_mean_variance({3.5}).has_value());
}

TEST(WindowStats, ConstantWindowHasZeroVarianceValidMean) {
  const auto stats = ctl::window_mean_variance({0.7, 0.7, 0.7, 0.7});
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->first, 0.7);
  EXPECT_DOUBLE_EQ(stats->second, 0.0);
}

TEST(WindowStats, PopulationMoments) {
  const auto stats = ctl::window_mean_variance({1.0, 3.0});
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->first, 2.0);
  EXPECT_DOUBLE_EQ(stats->second, 1.0);
}

// ---------------------------------------------------------------------------
// The "control" registry surface

TEST(ControlSurface, RegisteredAsSixthSurfaceInTheCatalog) {
  const auto surfaces = deflate::policy::describe_all_surfaces();
  EXPECT_EQ(surfaces.size(), 6U);
  bool found = false;
  for (const auto& surface : surfaces) {
    if (surface.surface != "control") continue;
    found = true;
    std::vector<std::string> names;
    for (const auto& policy : surface.policies) names.push_back(policy.name);
    EXPECT_NE(std::find(names.begin(), names.end(), "static"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "windowed"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "ewma"), names.end());
  }
  EXPECT_TRUE(found) << "catalog has no 'control' surface";
}

TEST(ControlSurface, UnknownPolicyThrowsListingChoices) {
  try {
    (void)ctl::make_forecast_policy("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("static"), std::string::npos);
    EXPECT_NE(what.find("windowed"), std::string::npos);
    EXPECT_NE(what.find("ewma"), std::string::npos);
  }
}

TEST(ControlSurface, AliasesResolve) {
  // "planned" -> static, "window" -> windowed (registration aliases).
  EXPECT_NE(ctl::make_forecast_policy("planned"), nullptr);
  EXPECT_NE(ctl::make_forecast_policy("window"), nullptr);
}

TEST(ControlSurface, BuiltinRecurrences) {
  const auto fixed = ctl::make_forecast_policy("static");
  const auto windowed = ctl::make_forecast_policy("windowed");
  const auto ewma = ctl::make_forecast_policy("ewma");

  // static: planned wins regardless of history.
  EXPECT_DOUBLE_EQ(fixed->update(2.0, 5.0, 9.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(fixed->update(2.0, 5.0, std::nullopt, 0.5), 2.0);
  // windowed: realized replaces; a missing window keeps the previous.
  EXPECT_DOUBLE_EQ(windowed->update(2.0, 5.0, 9.0, 0.5), 9.0);
  EXPECT_DOUBLE_EQ(windowed->update(2.0, 5.0, std::nullopt, 0.5), 5.0);
  // ewma: a*realized + (1-a)*previous; missing keeps the previous.
  EXPECT_DOUBLE_EQ(ewma->update(2.0, 5.0, 9.0, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(ewma->update(2.0, 5.0, 9.0, 0.25), 6.0);
  EXPECT_DOUBLE_EQ(ewma->update(2.0, 5.0, std::nullopt, 0.5), 5.0);
}

// ---------------------------------------------------------------------------
// RevocationForecaster degeneracies

TEST(RevocationForecaster, CalmWindowFallsBackToPlannedRate) {
  ctl::RevocationForecaster forecaster(ctl::make_forecast_policy("windowed"),
                                       0.5, {0.1}, {10.0});
  // 100 held hours, zero revocations: no evidence, not a zero rate.
  forecaster.observe_window(0, 0, 100.0, 0.0, 0);
  EXPECT_DOUBLE_EQ(forecaster.rate_per_hour(0), 0.1);
  EXPECT_DOUBLE_EQ(forecaster.mean_uptime_hours(0), 10.0);
}

TEST(RevocationForecaster, ZeroHeldHoursNeverDividesByZero) {
  ctl::RevocationForecaster forecaster(ctl::make_forecast_policy("windowed"),
                                       0.5, {0.1}, {10.0});
  // Revocations with no held hours (a window the market spent revoked):
  // the rate observation is undefined and must be dropped, finitely.
  forecaster.observe_window(0, 3, 0.0, 12.0, 3);
  EXPECT_TRUE(std::isfinite(forecaster.rate_per_hour(0)));
  EXPECT_DOUBLE_EQ(forecaster.rate_per_hour(0), 0.1);
  // The uptime observation was valid and lands: 12h over 3 spans.
  EXPECT_DOUBLE_EQ(forecaster.mean_uptime_hours(0), 4.0);
}

TEST(RevocationForecaster, WindowedRateIsRevocationsPerHeldHour) {
  ctl::RevocationForecaster forecaster(ctl::make_forecast_policy("windowed"),
                                       0.5, {0.1, 0.1}, {10.0, 10.0});
  forecaster.observe_window(1, 6, 30.0, 8.0, 6);
  EXPECT_DOUBLE_EQ(forecaster.rate_per_hour(1), 0.2);
  EXPECT_NEAR(forecaster.mean_uptime_hours(1), 8.0 / 6.0, 1e-12);
  // Market 0 saw no window and keeps its planned seed.
  EXPECT_DOUBLE_EQ(forecaster.rate_per_hour(0), 0.1);
  // Out-of-range market: defined, zero, no throw.
  EXPECT_DOUBLE_EQ(forecaster.rate_per_hour(7), 0.0);
  forecaster.observe_window(7, 1, 1.0, 1.0, 1);  // silently ignored
}

TEST(RevocationForecaster, EwmaBlendsTowardRealized) {
  ctl::RevocationForecaster forecaster(ctl::make_forecast_policy("ewma"), 0.5,
                                       {0.1}, {10.0});
  forecaster.observe_window(0, 3, 10.0, 0.0, 0);  // realized rate 0.3
  EXPECT_DOUBLE_EQ(forecaster.rate_per_hour(0), 0.2);
  forecaster.observe_window(0, 0, 10.0, 0.0, 0);  // calm: forecast holds
  EXPECT_DOUBLE_EQ(forecaster.rate_per_hour(0), 0.2);
}

// ---------------------------------------------------------------------------
// CorrelationEstimator degeneracies

TEST(CorrelationEstimator, SingleMarketIsAlwaysUnit) {
  ctl::CorrelationEstimator estimator(ctl::make_forecast_policy("windowed"),
                                      0.5, 1, {});
  ASSERT_EQ(estimator.forecast().size(), 1U);
  EXPECT_DOUBLE_EQ(estimator.forecast()[0][0], 1.0);
  estimator.observe_window({{1.0, 2.0, 3.0}});
  EXPECT_DOUBLE_EQ(estimator.forecast()[0][0], 1.0);
}

TEST(CorrelationEstimator, ConstantTraceKeepsPlannedCorrelation) {
  const Matrix planned = {{1.0, 0.4}, {0.4, 1.0}};
  ctl::CorrelationEstimator estimator(ctl::make_forecast_policy("windowed"),
                                      0.5, 2, planned);
  // One side constant: correlation undefined over this window.
  estimator.observe_window({{1.0, 1.0, 1.0}, {2.0, 3.0, 4.0}});
  EXPECT_NEAR(estimator.forecast()[0][1], 0.4, 1e-9);
  expect_correlation_matrix(estimator.forecast());
}

TEST(CorrelationEstimator, ShortWindowKeepsPlannedCorrelation) {
  const Matrix planned = {{1.0, -0.3}, {-0.3, 1.0}};
  ctl::CorrelationEstimator estimator(ctl::make_forecast_policy("windowed"),
                                      0.5, 2, planned);
  estimator.observe_window({{1.0}, {2.0}});      // one aligned sample
  EXPECT_NEAR(estimator.forecast()[0][1], -0.3, 1e-9);
  estimator.observe_window({});                  // no samples at all
  EXPECT_NEAR(estimator.forecast()[0][1], -0.3, 1e-9);
  expect_correlation_matrix(estimator.forecast());
}

TEST(CorrelationEstimator, RankDeficientPlannedMatrixStaysFinite) {
  // Perfectly correlated planned matrix (rank 1): the PSD projection is
  // a fixpoint, and later degenerate windows must not disturb it.
  const Matrix planned = {{1.0, 1.0}, {1.0, 1.0}};
  ctl::CorrelationEstimator estimator(ctl::make_forecast_policy("static"), 0.5,
                                      2, planned);
  expect_correlation_matrix(estimator.forecast());
  EXPECT_NEAR(estimator.forecast()[0][1], 1.0, 1e-9);
  estimator.observe_window({{5.0, 5.0}, {5.0, 5.0}});
  EXPECT_NEAR(estimator.forecast()[0][1], 1.0, 1e-9);
}

TEST(CorrelationEstimator, WindowedRealizedCorrelationLands) {
  ctl::CorrelationEstimator estimator(ctl::make_forecast_policy("windowed"),
                                      0.5, 2, {});
  // Perfectly anti-correlated window: clamped Pearson lands at -1 and the
  // projection keeps the matrix (eigenvalues {2, 0}) intact.
  estimator.observe_window({{1.0, 2.0, 3.0}, {3.0, 2.0, 1.0}});
  EXPECT_NEAR(estimator.forecast()[0][1], -1.0, 1e-9);
  expect_correlation_matrix(estimator.forecast());
}

// ---------------------------------------------------------------------------
// Simulator parity: an inert controller is bit-invisible

namespace {

sc::SimMetrics run_parity_sim(const std::function<void(sc::SimConfig&)>& tweak) {
  tr::AzureTraceConfig trace_config;
  trace_config.vm_count = 400;
  trace_config.seed = 21;
  trace_config.duration = deflate::sim::SimTime::from_hours(48);
  const std::vector<tr::VmRecord> records =
      tr::AzureTraceGenerator(trace_config).generate();

  sc::SimConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, config.server_capacity, -0.2);
  config.market_enabled = true;
  config.market.seed = 9;
  config.market.revocation.model = tn::RevocationModel::Poisson;
  config.market.revocation.poisson_rate_per_hour = 1.0 / 12.0;
  config.market.portfolio.on_demand_floor = 0.25;
  config.market.replicate_markets(3, 0.4);
  tweak(config);
  return sc::TraceDrivenSimulator(records, config).run();
}

void expect_same_outcome(const sc::SimMetrics& a, const sc::SimMetrics& b,
                         const char* label) {
  EXPECT_EQ(a.revocations, b.revocations) << label;
  EXPECT_EQ(a.revocation_migrations, b.revocation_migrations) << label;
  EXPECT_EQ(a.revocation_kills, b.revocation_kills) << label;
  EXPECT_EQ(a.preemptions, b.preemptions) << label;
  EXPECT_EQ(a.rejections, b.rejections) << label;
  EXPECT_EQ(a.failure_probability, b.failure_probability) << label;
  EXPECT_EQ(a.throughput_loss, b.throughput_loss) << label;
  EXPECT_EQ(a.unserved_core_hours, b.unserved_core_hours) << label;
  EXPECT_EQ(a.mean_cpu_deflation, b.mean_cpu_deflation) << label;
  EXPECT_EQ(a.cost.on_demand_core_hours, b.cost.on_demand_core_hours) << label;
  EXPECT_EQ(a.cost.transient_core_hours, b.cost.transient_core_hours) << label;
  EXPECT_EQ(a.cost.on_demand_cost, b.cost.on_demand_cost) << label;
  EXPECT_EQ(a.cost.transient_cost, b.cost.transient_cost) << label;
  EXPECT_EQ(a.cost.all_on_demand_cost, b.cost.all_on_demand_cost) << label;
}

}  // namespace

TEST(ControlParity, DisabledAndInfiniteWindowAreBitIdentical) {
  const sc::SimMetrics off = run_parity_sim([](sc::SimConfig&) {});
  EXPECT_EQ(off.control_reopts, 0U);
  EXPECT_EQ(off.control_moves, 0U);

  // enabled with an infinite window: the controller exists but its loop
  // never fires — estimator-only parity mode.
  const sc::SimMetrics inert = run_parity_sim([](sc::SimConfig& config) {
    config.control.enabled = true;
    config.control.reopt_hours = std::numeric_limits<double>::infinity();
    config.control.forecast = "windowed";
  });
  EXPECT_EQ(inert.control_reopts, 0U);
  EXPECT_EQ(inert.control_moves, 0U);
  expect_same_outcome(off, inert, "infinite window");
}

TEST(ControlParity, StaticForecastReoptimizesToTheSamePlan) {
  const sc::SimMetrics off = run_parity_sim([](sc::SimConfig&) {});
  // static forecast, finite window: the loop runs, reproduces the planned
  // weights every window, schedules zero moves — and every non-control
  // metric matches the disabled run exactly.
  const sc::SimMetrics fixed = run_parity_sim([](sc::SimConfig& config) {
    config.control.enabled = true;
    config.control.reopt_hours = 6.0;
    config.control.max_moves_per_window = 4;
    config.control.forecast = "static";
  });
  EXPECT_GT(fixed.control_reopts, 0U);
  EXPECT_EQ(fixed.control_moves, 0U);
  expect_same_outcome(off, fixed, "static forecast");
}

TEST(ControlParity, ZeroMoveBudgetChangesNothingWithoutBidOptimization) {
  const sc::SimMetrics off = run_parity_sim([](sc::SimConfig&) {});
  // A live forecast but zero move budget: with bid optimization off there
  // are no ceilings to push either, so the run stays bit-identical.
  const sc::SimMetrics pinned = run_parity_sim([](sc::SimConfig& config) {
    config.control.enabled = true;
    config.control.reopt_hours = 6.0;
    config.control.max_moves_per_window = 0;
    config.control.forecast = "windowed";
  });
  EXPECT_GT(pinned.control_reopts, 0U);
  EXPECT_EQ(pinned.control_moves, 0U);
  expect_same_outcome(off, pinned, "zero move budget");
}

TEST(ControlParity, LiveControllerActuallyMoves) {
  // Sanity check on the non-parity side: with a responsive forecast, a
  // move budget and a revocation regime far from the plan, the controller
  // re-optimizes and schedules real moves — proving the parity above is
  // not vacuous.
  const sc::SimMetrics live = run_parity_sim([](sc::SimConfig& config) {
    config.control.enabled = true;
    config.control.reopt_hours = 6.0;
    config.control.max_moves_per_window = 4;
    config.control.forecast = "windowed";
    // Mid-run revocation storm on a regenerated market suffix: the
    // `after` config mirrors the planned one (same market count / price
    // step / on-demand rate) with a hotter revocation regime.
    config.control.regime_shift.at_hours = 12.0;
    config.control.regime_shift.after = config.market;
    config.control.regime_shift.after.seed = 1234;
    for (auto& market : config.control.regime_shift.after.markets) {
      market.revocation.poisson_rate_per_hour = 1.0 / 3.0;
    }
  });
  EXPECT_GT(live.control_reopts, 0U);
  // Moves are regime-dependent; the hard assertion is that the metrics
  // stay finite and the simulator completes. (scenario_reopt gates the
  // cost advantage.)
  EXPECT_TRUE(std::isfinite(live.cost.total_cost()));
  EXPECT_TRUE(std::isfinite(live.throughput_loss));
}

// ---------------------------------------------------------------------------
// Timed moves, bid-optimized ceilings and the regime-shift splice

namespace {

using deflate::sim::SimTime;

constexpr double kWarningHours = 120.0 / 3600.0;

/// Three zones with a two-minute revocation warning and per-class bid
/// optimization (the `market` perfbench workload's market, at test size).
tn::MarketEngineConfig timed_market() {
  tn::MarketEngineConfig market;
  market.seed = 9;
  market.revocation.model = tn::RevocationModel::Poisson;
  market.revocation.poisson_rate_per_hour = 1.0 / 12.0;
  market.revocation.warning_hours = kWarningHours;
  market.portfolio.on_demand_floor = 0.2;
  market.optimize_bids = true;
  market.replicate_markets(3, 0.45);
  return market;
}

/// From 12 h on, zone 0 revokes every two hours under a new seed.
ctl::RegimeShiftConfig storm_on_zone0(const tn::MarketEngineConfig& market) {
  ctl::RegimeShiftConfig shift;
  shift.at_hours = 12.0;
  shift.after = market;
  shift.after.seed = 4242;
  shift.after.markets[0].revocation.poisson_rate_per_hour = 1.0 / 2.0;
  return shift;
}

/// Each server's events in schedule order, keyed by server id.
std::map<std::size_t, std::vector<tn::RevocationEvent>> by_server(
    const std::vector<tn::RevocationEvent>& schedule) {
  std::map<std::size_t, std::vector<tn::RevocationEvent>> out;
  for (const tn::RevocationEvent& event : schedule) {
    out[event.server].push_back(event);
  }
  return out;
}

/// The weight-blended per-class bids of the markets' realized window
/// [from, now), computed independently of the controller.
std::vector<double> window_ceilings(const tn::CapacityPlan& plan,
                                    const tn::MarketEngineConfig& market,
                                    SimTime from, SimTime now) {
  tn::BidOptimizerConfig bidding = market.bidding;
  bidding.on_demand_price =
      market.effective_markets().front().price.on_demand_price;
  const tn::BidOptimizer optimizer(bidding);
  const std::size_t k = plan.markets.size();
  std::vector<std::vector<tn::ClassBid>> bids(k);
  double weight_sum = 0.0;
  for (std::size_t m = 0; m < k; ++m) {
    const tn::PriceTrace& prices = plan.markets[m].prices;
    const auto step = prices.step().micros();
    const std::vector<double> window(
        prices.samples().begin() + from.micros() / step,
        prices.samples().begin() + now.micros() / step);
    tn::RevocationConfig revocation = market.effective_markets()[m].revocation;
    revocation.bid = plan.optimized_bids[m];
    bids[m] = optimizer.optimize_classes(tn::PriceTrace(prices.step(), window),
                                         revocation);
    weight_sum += std::max(0.0, plan.markets[m].weight);
  }
  std::vector<double> ceilings(bids[0].size(), 0.0);
  for (std::size_t c = 0; c < ceilings.size(); ++c) {
    for (std::size_t m = 0; m < k; ++m) {
      const double w = weight_sum > 0.0
                           ? std::max(0.0, plan.markets[m].weight) / weight_sum
                           : 1.0 / static_cast<double>(k);
      ceilings[c] += w * bids[m][c].bid;
    }
  }
  return ceilings;
}

}  // namespace

TEST(ControlParity, TimedMovesRewriteEveryWarnAgainstItsRevoke) {
  const tn::MarketEngineConfig market = timed_market();
  const SimTime horizon = SimTime::from_hours(48);
  tn::CapacityPlan plan = tn::TransientMarketEngine(market).plan(60, horizon);
  ctl::ControlConfig config;
  config.enabled = true;
  config.reopt_hours = 6.0;
  config.max_moves_per_window = 6;
  config.forecast = "windowed";
  config.regime_shift = storm_on_zone0(market);
  ctl::apply_regime_shift(plan, market, config.regime_shift, horizon);
  ctl::FleetController controller(config, market, plan, horizon,
                                  /*timed_migration=*/true);

  const SimTime warning = SimTime::from_hours(kWarningHours);
  std::size_t rewrites = 0;
  std::size_t warns = 0;
  for (SimTime now = SimTime::from_hours(6); now < horizon;
       now += SimTime::from_hours(6)) {
    const ctl::ReoptResult result = controller.reoptimize(now);
    EXPECT_TRUE(result.ceilings_updated);
    if (!result.schedule_rewritten) continue;
    ++rewrites;
    const auto rank = [](ctl::PlanEvent::Kind kind) {
      return static_cast<int>(kind);
    };
    // The warns the suffix must carry: one per revoke, at the deadline
    // minus the warning, clamped to the server's previous event; a warn
    // at or before `now` has already fired and is left out.
    std::set<std::tuple<std::size_t, SimTime, SimTime>> expected;
    std::set<std::tuple<std::size_t, SimTime, SimTime>> got;
    std::map<std::size_t, SimTime> previous;
    for (std::size_t i = 0; i < result.future_events.size(); ++i) {
      const ctl::PlanEvent& event = result.future_events[i];
      EXPECT_GT(event.at, now);
      if (i > 0) {
        const ctl::PlanEvent& before = result.future_events[i - 1];
        EXPECT_TRUE(before.at < event.at ||
                    (before.at == event.at &&
                     (rank(before.kind) < rank(event.kind) ||
                      (before.kind == event.kind &&
                       before.server < event.server))));
      }
      if (event.kind == ctl::PlanEvent::Kind::Warn) {
        got.insert({event.server, event.at, event.deadline});
        continue;
      }
      if (event.kind == ctl::PlanEvent::Kind::Revoke) {
        SimTime warn_at = event.at - warning;
        if (const auto prev = previous.find(event.server);
            prev != previous.end() && warn_at < prev->second) {
          warn_at = prev->second;
        }
        if (warn_at > now && warn_at < event.at) {
          expected.insert({event.server, warn_at, event.at});
        }
      }
      previous[event.server] = event.at;
    }
    EXPECT_EQ(got, expected) << "reopt at " << now.hours() << " h";
    warns += got.size();
  }
  EXPECT_GT(controller.total_moves(), 0U);
  EXPECT_GT(rewrites, 0U);
  EXPECT_GT(warns, 0U);
}

TEST(ControlParity, StaticForecastPushesThePlannedCeilingsBitForBit) {
  const tn::MarketEngineConfig market = timed_market();
  const SimTime horizon = SimTime::from_hours(48);
  const tn::CapacityPlan plan =
      tn::TransientMarketEngine(market).plan(60, horizon);
  ASSERT_FALSE(plan.class_ceilings.empty());
  ctl::ControlConfig config;
  config.enabled = true;
  config.forecast = "static";
  ctl::FleetController controller(config, market, plan, horizon,
                                  /*timed_migration=*/true);
  for (SimTime now = SimTime::from_hours(6); now < horizon;
       now += SimTime::from_hours(6)) {
    const ctl::ReoptResult result = controller.reoptimize(now);
    ASSERT_TRUE(result.ceilings_updated);
    EXPECT_EQ(result.class_ceilings, plan.class_ceilings);
    EXPECT_EQ(result.moves, 0U);
    EXPECT_FALSE(result.schedule_rewritten);
  }
}

TEST(ControlParity, WindowedCeilingsBlendTheWindowBidsByPlannedWeight) {
  // Without the portfolio the controller's target weights are the planned
  // ones, so the pushed ceilings are the window's per-class optima
  // blended by the plan's market weights — uniformly when every market
  // weight is zero (an all-on-demand fleet).
  for (const double on_demand_share : {0.25, 1.0}) {
    tn::MarketEngineConfig market = timed_market();
    market.use_portfolio = false;
    market.on_demand_share = on_demand_share;
    const SimTime horizon = SimTime::from_hours(24);
    const tn::CapacityPlan plan =
        tn::TransientMarketEngine(market).plan(40, horizon);
    ctl::ControlConfig config;
    config.enabled = true;
    config.forecast = "windowed";
    ctl::FleetController controller(config, market, plan, horizon,
                                    /*timed_migration=*/true);
    SimTime from;
    for (SimTime now = SimTime::from_hours(6); now < horizon;
         now += SimTime::from_hours(6)) {
      const ctl::ReoptResult result = controller.reoptimize(now);
      ASSERT_TRUE(result.ceilings_updated);
      EXPECT_EQ(result.class_ceilings,
                window_ceilings(plan, market, from, now))
          << "share " << on_demand_share << ", reopt at " << now.hours();
      from = now;
    }
  }
}

TEST(ControlParity, StaticForecastUnderTimedMigrationAndBidCeilingsIsInert) {
  // Timed migration, bid-optimized admission and a static forecast: every
  // window pushes the planned ceilings into the live admission controller
  // and moves nothing, so the run matches the controller-free one.
  const auto timed = [](sc::SimConfig& config) {
    config.market.optimize_bids = true;
    for (tn::MarketDef& def : config.market.markets) {
      def.revocation.warning_hours = kWarningHours;
    }
    config.migration.model.bandwidth_mib_per_sec = 256.0;
    config.migration.strategy_name = "hybrid";
    config.admission.policy = deflate::cluster::AdmissionPolicyKind::BidOptimized;
  };
  const sc::SimMetrics off = run_parity_sim(timed);
  const sc::SimMetrics fixed = run_parity_sim([&](sc::SimConfig& config) {
    timed(config);
    config.control.enabled = true;
    config.control.reopt_hours = 6.0;
    config.control.max_moves_per_window = 6;
    config.control.forecast = "static";
  });
  EXPECT_GT(fixed.control_reopts, 0U);
  EXPECT_EQ(fixed.control_moves, 0U);
  EXPECT_GT(off.live_migrations, 0U);
  expect_same_outcome(off, fixed, "timed static forecast");
  EXPECT_EQ(off.live_migrations, fixed.live_migrations);
  EXPECT_EQ(off.admission_deferrals, fixed.admission_deferrals);
  EXPECT_EQ(off.migration_downtime_hours, fixed.migration_downtime_hours);

  // The same run with a live forecast and a storm on zone 0 moves servers
  // through warning windows and still completes with finite metrics.
  const sc::SimMetrics live = run_parity_sim([&](sc::SimConfig& config) {
    timed(config);
    config.control.enabled = true;
    config.control.reopt_hours = 6.0;
    config.control.max_moves_per_window = 6;
    config.control.forecast = "windowed";
    config.control.regime_shift = storm_on_zone0(config.market);
  });
  EXPECT_GT(live.control_moves, 0U);
  EXPECT_TRUE(std::isfinite(live.cost.total_cost()));
  EXPECT_TRUE(std::isfinite(live.throughput_loss));
}

TEST(RegimeShift, IncompatibleAfterConfigsThrow) {
  const tn::MarketEngineConfig market = timed_market();
  const SimTime horizon = SimTime::from_hours(24);
  const tn::CapacityPlan plan =
      tn::TransientMarketEngine(market).plan(30, horizon);
  const auto shifted = [&](const std::function<void(tn::MarketEngineConfig&)>&
                               tweak) {
    ctl::RegimeShiftConfig shift = storm_on_zone0(market);
    tweak(shift.after);
    tn::CapacityPlan copy = plan;
    ctl::apply_regime_shift(copy, market, shift, horizon);
  };
  EXPECT_THROW(shifted([](tn::MarketEngineConfig& after) {
                 after.replicate_markets(2, 0.45);
               }),
               std::invalid_argument);
  EXPECT_THROW(shifted([](tn::MarketEngineConfig& after) {
                 after.markets[1].price.step = SimTime::from_minutes(10);
               }),
               std::invalid_argument);
  EXPECT_THROW(shifted([](tn::MarketEngineConfig& after) {
                 for (tn::MarketDef& def : after.markets) {
                   def.price.on_demand_price = 2.0;
                 }
               }),
               std::invalid_argument);
  EXPECT_NO_THROW(shifted([](tn::MarketEngineConfig&) {}));
}

TEST(RegimeShift, KeepsEachServersPrefixAndAlternatesAfterTheSplice) {
  const tn::MarketEngineConfig market = timed_market();
  const SimTime horizon = SimTime::from_hours(48);
  const tn::CapacityPlan planned =
      tn::TransientMarketEngine(market).plan(60, horizon);
  tn::CapacityPlan plan = planned;
  const ctl::RegimeShiftConfig shift = storm_on_zone0(market);
  ctl::apply_regime_shift(plan, market, shift, horizon);
  const SimTime at = SimTime::from_hours(shift.at_hours);

  std::size_t after_shift = 0;
  for (std::size_t m = 0; m < plan.markets.size(); ++m) {
    ASSERT_TRUE(std::is_sorted(plan.markets[m].revocations.begin(),
                               plan.markets[m].revocations.end(),
                               tn::schedule_before));
    auto before = by_server(planned.markets[m].revocations);
    auto now = by_server(plan.markets[m].revocations);
    for (const std::size_t server : plan.markets[m].servers) {
      std::vector<tn::RevocationEvent> prefix;
      for (const tn::RevocationEvent& event : before[server]) {
        if (event.at < at) prefix.push_back(event);
      }
      const std::vector<tn::RevocationEvent>& events = now[server];
      ASSERT_GE(events.size(), prefix.size());
      EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), events.begin()))
          << "server " << server;
      bool held = true;
      for (const tn::RevocationEvent& event : events) {
        EXPECT_EQ(event.revoke, held) << "server " << server;
        held = !event.revoke;
        if (event.at >= at) ++after_shift;
      }
    }
  }
  EXPECT_GT(after_shift, 0U);
  std::vector<tn::RevocationEvent> merged;
  for (const tn::MarketPlan& market_plan : plan.markets) {
    merged.insert(merged.end(), market_plan.revocations.begin(),
                  market_plan.revocations.end());
  }
  std::sort(merged.begin(), merged.end(), tn::schedule_before);
  EXPECT_EQ(merged, plan.revocations);
}

namespace {

/// Checks that every warn in `events` (strictly after `after`) announces
/// its revoke with the window in force at the revoke — `before_hours`
/// before `shift`, `after_hours` from it on — clamped to the server's
/// previous event and to t=0. A warn at `drain_at` announces a drain
/// scheduled then; the caller checks those. Returns how many warns
/// announce a post-shift revoke with the full post-shift window.
std::size_t expect_shift_aware_warns(const std::vector<ctl::PlanEvent>& events,
                                     SimTime after, SimTime shift,
                                     double before_hours, double after_hours,
                                     const std::string& label,
                                     SimTime drain_at = SimTime::max()) {
  std::set<std::tuple<std::size_t, SimTime, SimTime>> expected;
  std::set<std::tuple<std::size_t, SimTime, SimTime>> got;
  for (const ctl::PlanEvent& event : events) {
    if (event.kind == ctl::PlanEvent::Kind::Warn) {
      got.insert({event.server, event.at, event.deadline});
    }
  }
  std::map<std::size_t, SimTime> previous;
  for (const ctl::PlanEvent& event : events) {
    if (event.kind == ctl::PlanEvent::Kind::Warn) continue;
    if (event.kind == ctl::PlanEvent::Kind::Revoke) {
      const double hours = event.at < shift ? before_hours : after_hours;
      SimTime warn_at = event.at - SimTime::from_hours(hours);
      if (const auto prev = previous.find(event.server);
          prev != previous.end() && warn_at < prev->second) {
        warn_at = prev->second;
      }
      if (warn_at < SimTime{}) warn_at = SimTime{};
      if (got.contains({event.server, drain_at, event.at})) {
        expected.insert({event.server, drain_at, event.at});
      } else if (warn_at > after && warn_at < event.at) {
        expected.insert({event.server, warn_at, event.at});
      }
    }
    previous[event.server] = event.at;
  }
  EXPECT_EQ(got, expected) << label;
  std::size_t full_post_shift = 0;
  for (const auto& [server, at, deadline] : got) {
    if (deadline >= shift &&
        deadline - at == SimTime::from_hours(after_hours)) {
      ++full_post_shift;
    }
  }
  return full_post_shift;
}

/// Drives the warn-window rule across a regime shift that changes every
/// market's window from `before_hours` to `after_hours`: the simulator's
/// initial queue for a shift at 12 h, then the controller's rewritten
/// suffixes (re-plans every 6 h from `first_reopt_hours`) for each shift
/// instant in `shifts`. Every drain is announced the moment it is
/// scheduled, with the post-shift window when that lands its revoke at
/// or after the shift and the window in force otherwise. Returns how
/// many drains were scheduled while the pre-shift window, but not the
/// post-shift one, still ended before the shift.
std::size_t check_shift_windows(double before_hours, double after_hours,
                                std::initializer_list<double> shifts,
                                double first_reopt_hours) {
  tn::MarketEngineConfig market = timed_market();
  for (tn::MarketDef& def : market.markets) {
    def.revocation.warning_hours = before_hours;
  }
  ctl::RegimeShiftConfig shift = storm_on_zone0(market);
  for (tn::MarketDef& def : shift.after.markets) {
    def.revocation.warning_hours = after_hours;
  }
  const SimTime horizon = SimTime::from_hours(48);
  const SimTime eps = SimTime::from_micros(1);
  tn::CapacityPlan plan = tn::TransientMarketEngine(market).plan(60, horizon);
  ctl::apply_regime_shift(plan, market, shift, horizon);

  // The simulator's initial queue: every event, t=0 included.
  const SimTime all = SimTime::from_micros(-1);
  const std::vector<ctl::PlanEvent> queue = ctl::plan_events(
      ctl::server_timelines(plan),
      ctl::warning_hours(market.effective_markets()), all,
      shift.starts_at(horizon),
      ctl::warning_hours(shift.after.effective_markets()));
  EXPECT_GT(expect_shift_aware_warns(queue, all, shift.starts_at(horizon),
                                     before_hours, after_hours,
                                     "initial queue"),
            0U);

  std::size_t straddling_drains = 0;
  for (const double shift_hours : shifts) {
    shift.at_hours = shift_hours;
    const SimTime at = shift.starts_at(horizon);
    tn::CapacityPlan shifted =
        tn::TransientMarketEngine(market).plan(60, horizon);
    ctl::apply_regime_shift(shifted, market, shift, horizon);
    ctl::ControlConfig config;
    config.enabled = true;
    config.reopt_hours = 6.0;
    config.max_moves_per_window = 6;
    config.forecast = "windowed";
    config.regime_shift = shift;
    ctl::FleetController controller(config, market, shifted, horizon,
                                    /*timed_migration=*/true);
    std::size_t post_shift_warns = 0;
    for (SimTime now = SimTime::from_hours(first_reopt_hours); now < horizon;
         now += SimTime::from_hours(6)) {
      const ctl::ReoptResult result = controller.reoptimize(now);
      if (!result.schedule_rewritten) continue;
      const std::string label = "shift at " + std::to_string(shift_hours) +
                                " h, suffix at " +
                                std::to_string(now.hours()) + " h";
      const SimTime drain_at = now + eps;
      post_shift_warns +=
          expect_shift_aware_warns(result.future_events, now, at, before_hours,
                                   after_hours, label, drain_at);
      const bool straddles =
          now < at && drain_at + SimTime::from_hours(after_hours) < at &&
          drain_at + SimTime::from_hours(before_hours) >= at;
      const double drain_hours =
          (now >= at || drain_at + SimTime::from_hours(after_hours) >= at)
              ? after_hours
              : before_hours;
      std::size_t announced = 0;
      for (const ctl::PlanEvent& event : result.future_events) {
        if (event.kind != ctl::PlanEvent::Kind::Warn || event.at != drain_at) {
          continue;
        }
        ++announced;
        EXPECT_EQ(event.deadline - event.at,
                  SimTime::from_hours(drain_hours))
            << label;
      }
      EXPECT_EQ(announced, result.moves) << label;
      if (straddles) straddling_drains += result.moves;
    }
    EXPECT_GT(controller.total_moves(), 0U);
    EXPECT_EQ(post_shift_warns > 0, shift.active()) << shift_hours;
  }
  return straddling_drains;
}

}  // namespace

TEST(RegimeShift, WarnsAfterTheShiftUseThePostShiftWindow) {
  // Without a shift, with the shift on a re-plan, and just after one,
  // where a drain begun before the shift lands after it.
  check_shift_windows(0.5, 2.0, {0.0, 12.0, 12.25}, 6.0);
}

TEST(RegimeShift, DrainsKeepTheirWindowWhenItShrinksAcrossTheShift) {
  // Re-plans at 5, 11, 17, ... h: the one at 11 h schedules drains whose
  // 2.0 h window ends after the 12 h shift and whose 0.5 h one would not.
  // They keep the 2.0 h window and are announced when scheduled.
  EXPECT_GT(check_shift_windows(2.0, 0.5, {12.0}, 5.0), 0U);
}

// ---------------------------------------------------------------------------
// server_timelines / plan_events: the one plan-event builder

namespace {

using Row = std::tuple<SimTime, ctl::PlanEvent::Kind, std::size_t, SimTime>;

std::vector<Row> rows(const std::vector<ctl::PlanEvent>& events) {
  std::vector<Row> out;
  for (const ctl::PlanEvent& event : events) {
    out.emplace_back(event.at, event.kind, event.server, event.deadline);
  }
  return out;
}

SimTime hours(double h) { return SimTime::from_hours(h); }

/// plan_events' shift instant when no regime shift is configured.
const SimTime kNoShift = SimTime::max();

/// Server 3 (market 0): revoked at 1 h, back at 2 h, revoked at 2.5 h.
/// Server 1 (market 0): revoked at 2 h.
std::vector<ctl::ServerTimeline> two_servers() {
  ctl::ServerTimeline one;
  one.server = 1;
  one.events = {{hours(2), true, 0}};
  ctl::ServerTimeline three;
  three.server = 3;
  three.events = {{hours(1), true, 0}, {hours(2), false, 0},
                  {hours(2.5), true, 0}};
  return {one, three};
}

}  // namespace

TEST(PlanEvents, WarnsClampToThePreviousEventAndToTimeZero) {
  using K = ctl::PlanEvent::Kind;
  const std::vector<Row> expected = {
      {hours(0), K::Warn, 3, hours(1)},      // 1 h - 1.5 h, clamped to t=0
      {hours(0.5), K::Warn, 1, hours(2)},    // 2 h - 1.5 h
      {hours(1), K::Revoke, 3, SimTime{}},
      // Equal times: restore < warn < revoke, whatever the server ids.
      {hours(2), K::Restore, 3, SimTime{}},
      {hours(2), K::Warn, 3, hours(2.5)},    // clamped to the restore
      {hours(2), K::Revoke, 1, SimTime{}},
      {hours(2.5), K::Revoke, 3, SimTime{}},
  };
  EXPECT_EQ(rows(ctl::plan_events(two_servers(), {1.5},
                                  SimTime::from_micros(-1), kNoShift, {})),
            expected);
}

TEST(PlanEvents, KeepsOnlyWhatLiesStrictlyAfterAfter) {
  using K = ctl::PlanEvent::Kind;
  // The warn at exactly `after` has already fired.
  EXPECT_EQ(rows(ctl::plan_events(two_servers(), {1.5}, hours(2), kNoShift,
                                  {})),
            (std::vector<Row>{{hours(2.5), K::Revoke, 3, SimTime{}}}));
  EXPECT_EQ(rows(ctl::plan_events(two_servers(), {1.5}, hours(1.9), kNoShift,
                                  {})),
            (std::vector<Row>{{hours(2), K::Restore, 3, SimTime{}},
                              {hours(2), K::Warn, 3, hours(2.5)},
                              {hours(2), K::Revoke, 1, SimTime{}},
                              {hours(2.5), K::Revoke, 3, SimTime{}}}));
}

TEST(PlanEvents, NoWarningHoursMeansNoWarns) {
  using K = ctl::PlanEvent::Kind;
  const std::vector<Row> bare = {
      {hours(1), K::Revoke, 3, SimTime{}},
      {hours(2), K::Restore, 3, SimTime{}},
      {hours(2), K::Revoke, 1, SimTime{}},
      {hours(2.5), K::Revoke, 3, SimTime{}},
  };
  EXPECT_EQ(rows(ctl::plan_events(two_servers(), {}, SimTime::from_micros(-1),
                                  kNoShift, {})),
            bare);
  // A zero window, or a revoke in a market the list does not cover,
  // gets no warn either.
  EXPECT_EQ(rows(ctl::plan_events(two_servers(), {0.0},
                                  SimTime::from_micros(-1), kNoShift, {})),
            bare);
  std::vector<ctl::ServerTimeline> moved = two_servers();
  for (ctl::ServerTimeline& timeline : moved) {
    for (ctl::TimelineEvent& event : timeline.events) event.market = 1;
  }
  EXPECT_EQ(rows(ctl::plan_events(moved, {1.5}, SimTime::from_micros(-1),
                                  kNoShift, {})),
            bare);
  // The window is the revoke's market's.
  const std::vector<ctl::PlanEvent> tagged =
      ctl::plan_events(moved, {1.5, 0.25}, SimTime::from_micros(-1),
                       kNoShift, {});
  EXPECT_EQ(tagged.size(), bare.size() + 3);
  EXPECT_EQ(rows(tagged)[0], (Row{hours(0.75), K::Warn, 3, hours(1)}));
}

TEST(PlanEvents, ServerTimelinesGroupEachMarketsSchedulePerServer) {
  const SimTime horizon = SimTime::from_hours(24);
  const tn::CapacityPlan plan =
      tn::TransientMarketEngine(timed_market()).plan(30, horizon);
  const std::vector<ctl::ServerTimeline> timelines =
      ctl::server_timelines(plan);
  ASSERT_EQ(timelines.size(), plan.transient_servers.size());
  std::size_t events = 0;
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    const ctl::ServerTimeline& timeline = timelines[i];
    EXPECT_EQ(timeline.server, plan.transient_servers[i]);
    const tn::MarketPlan& market = plan.markets[timeline.initial_market];
    EXPECT_TRUE(std::binary_search(market.servers.begin(),
                                   market.servers.end(), timeline.server));
    std::vector<tn::RevocationEvent> expected;
    for (const tn::RevocationEvent& event : market.revocations) {
      if (event.server == timeline.server) expected.push_back(event);
    }
    ASSERT_EQ(timeline.events.size(), expected.size());
    for (std::size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(timeline.events[e].at, expected[e].at);
      EXPECT_EQ(timeline.events[e].revoke, expected[e].revoke);
      EXPECT_EQ(timeline.events[e].market, timeline.initial_market);
      EXPECT_FALSE(timeline.events[e].synthetic);
    }
    events += expected.size();
  }
  EXPECT_EQ(events, plan.revocations.size());
  EXPECT_GT(events, 0U);
}
