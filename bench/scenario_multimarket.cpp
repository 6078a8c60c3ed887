// Multi-market portfolio scenario: the same transient fleet planned over
// one spot market vs three correlated markets, under provider-wide
// capacity crunches (common shocks). Diversification is the point of the
// portfolio math (Sharma et al., arXiv:1704.08738 §4): with imperfectly
// correlated markets the per-seed fleet cost keeps the same mean but a
// visibly smaller variance, because a price spike in one market no longer
// moves the whole transient bill.
//
// Sections:
//   1. K=1 parity — a one-entry market list must reproduce the legacy
//      single-market engine bit for bit (plan + billing).
//   2. Fixed 30% on-demand split — isolates diversification: same fleet
//      split, 1 vs 3 markets.
//   3. Portfolio-chosen split — the optimizer reacts to the lower joint
//      risk (less on-demand, cheaper mix) while variance still drops.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "transient/market.hpp"
#include "util/table.hpp"

namespace {

using namespace deflate;

constexpr std::size_t kServers = 120;
constexpr double kCoresPerServer = 48.0;
constexpr std::size_t kSeeds = 30;

sim::SimTime horizon() { return sim::SimTime::from_hours(72); }

// Price-crossing revocations tie server loss to the price path, so a
// common crunch revokes capacity market-wide — the risk being diversified.
transient::MarketEngineConfig base_config() {
  transient::MarketEngineConfig config;
  config.price.volatility = 0.08;
  config.revocation.model = transient::RevocationModel::PriceCrossing;
  config.revocation.bid = 0.6;
  config.common_shock_rate_per_hour = 1.0 / 36.0;
  config.common_shock_decay_hours = 2.0;
  config.portfolio.on_demand_floor = 0.1;
  config.portfolio.risk_aversion = 2.0;
  return config;
}

transient::MarketEngineConfig multi_config(std::size_t market_count,
                                           double correlation) {
  transient::MarketEngineConfig config = base_config();
  config.replicate_markets(market_count, correlation);
  return config;
}

struct Summary {
  double mean_cost = 0.0;
  double cost_stddev = 0.0;
  double mean_saving = 0.0;
  double mean_od_share = 0.0;
  double mean_revocations = 0.0;
};

Summary sweep(transient::MarketEngineConfig config) {
  std::vector<double> costs;
  Summary out;
  for (std::size_t i = 0; i < kSeeds; ++i) {
    config.seed = 1000 + i;
    const transient::TransientMarketEngine engine(config);
    const auto plan = engine.plan(kServers, horizon());
    const auto report = engine.cost_report(plan, kCoresPerServer, horizon());
    costs.push_back(report.total_cost());
    out.mean_saving += report.saving_percent();
    out.mean_od_share += plan.portfolio.on_demand_weight();
    for (const auto& event : plan.revocations) {
      if (event.revoke) out.mean_revocations += 1.0;
    }
  }
  const auto n = static_cast<double>(costs.size());
  for (const double c : costs) out.mean_cost += c;
  out.mean_cost /= n;
  for (const double c : costs) {
    out.cost_stddev += (c - out.mean_cost) * (c - out.mean_cost);
  }
  out.cost_stddev = std::sqrt(out.cost_stddev / n);
  out.mean_saving /= n;
  out.mean_od_share /= n;
  out.mean_revocations /= n;
  return out;
}

void add_row(util::Table& table, const std::string& label, const Summary& s) {
  table.add_row({label, util::format_double(s.mean_cost, 0),
                 util::format_double(s.cost_stddev, 0),
                 util::format_double(100.0 * s.cost_stddev / s.mean_cost, 2),
                 util::format_double(s.mean_saving, 1),
                 util::format_double(100.0 * s.mean_od_share, 1),
                 util::format_double(s.mean_revocations, 1)});
}

/// A one-entry market list must reproduce the legacy engine exactly.
bool k1_parity() {
  transient::MarketEngineConfig legacy = base_config();
  legacy.seed = 1234;
  transient::MarketEngineConfig single = multi_config(1, 0.0);
  single.seed = 1234;
  const transient::TransientMarketEngine a(legacy);
  const transient::TransientMarketEngine b(single);
  const auto plan_a = a.plan(kServers, horizon());
  const auto plan_b = b.plan(kServers, horizon());
  const auto cost_a = a.cost_report(plan_a, kCoresPerServer, horizon());
  const auto cost_b = b.cost_report(plan_b, kCoresPerServer, horizon());
  return plan_a.markets[0].prices.samples() ==
             plan_b.markets[0].prices.samples() &&
         plan_a.on_demand_servers == plan_b.on_demand_servers &&
         plan_a.transient_servers == plan_b.transient_servers &&
         plan_a.revocations == plan_b.revocations &&
         cost_a.total_cost() == cost_b.total_cost();
}

}  // namespace

int main() {
  bench::print_header(
      "Scenario: multi-market transient portfolios",
      "spreading the transient fleet across correlated spot markets keeps "
      "the mean fleet cost while cutting its across-seed variance — the "
      "mean-variance mixing of Sharma et al. turned into server pools");

  std::cout << kServers << " servers x " << kCoresPerServer << " cores, 72h "
            << "horizon, " << kSeeds << " seeds; price-crossing revocations "
            << "(bid 0.6), provider-wide crunches every ~36h\n\n";

  const bool parity = k1_parity();
  std::cout << "K=1 market-list plan vs legacy single-market engine: "
            << (parity ? "bit-identical" : "MISMATCH") << "\n\n";

  util::Table table({"scenario", "mean_cost", "cost_stddev", "cv_%",
                     "saving_vs_od_%", "od_share_%", "revocations"});

  // Fixed split: diversification alone.
  auto fixed_single = base_config();
  fixed_single.use_portfolio = false;
  fixed_single.on_demand_share = 0.3;
  auto fixed_multi = multi_config(3, 0.35);
  fixed_multi.use_portfolio = false;
  fixed_multi.on_demand_share = 0.3;
  const Summary fs = sweep(fixed_single);
  const Summary fm = sweep(fixed_multi);
  add_row(table, "fixed 30% od, 1 market", fs);
  add_row(table, "fixed 30% od, 3 markets (rho 0.35)", fm);

  // Portfolio-chosen split.
  const Summary ps = sweep(base_config());
  const Summary pm = sweep(multi_config(3, 0.35));
  add_row(table, "portfolio, 1 market", ps);
  add_row(table, "portfolio, 3 markets (rho 0.35)", pm);
  table.print(std::cout);

  const bool fixed_ok = fm.cost_stddev < fs.cost_stddev &&
                        fm.mean_cost <= fs.mean_cost * 1.02;
  const bool portfolio_ok = pm.cost_stddev < ps.cost_stddev &&
                            pm.mean_cost <= ps.mean_cost * 1.02;
  std::cout << "\n3-market vs 1-market: fixed split "
            << (fixed_ok ? "lower variance, mean held" : "NO IMPROVEMENT")
            << "; portfolio split "
            << (portfolio_ok ? "lower variance, mean held" : "NO IMPROVEMENT")
            << "\n";
  bench::print_profile();
  return parity && fixed_ok && portfolio_ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
