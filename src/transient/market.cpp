#include "transient/market.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace deflate::transient {

namespace {

/// The on-demand pool and the all-on-demand counterfactual are billed at
/// one rate, so heterogeneous per-market on-demand prices have no
/// well-defined cost report — reject them up front.
void validate_markets(const std::vector<MarketDef>& defs) {
  for (const MarketDef& def : defs) {
    if (def.price.on_demand_price != defs.front().price.on_demand_price) {
      throw std::invalid_argument(
          "TransientMarketEngine: markets must share one on-demand rate");
    }
  }
}

/// Sample correlation of the realized price traces. The optimizer prices
/// the co-movement that actually materialized — the configured generator
/// coupling *and* the common shocks — mirroring how MarketSpec estimates
/// mean/variance from the trace ("portfolio construction from market
/// history", Sharma et al. §4).
std::vector<std::vector<double>> empirical_correlation(
    const std::vector<MarketPlan>& markets) {
  const std::size_t k = markets.size();
  std::vector<std::vector<double>> corr(k, std::vector<double>(k, 0.0));
  std::size_t n = markets.empty() ? 0 : markets[0].prices.samples().size();
  for (const MarketPlan& market : markets) {
    n = std::min(n, market.prices.samples().size());
  }
  std::vector<double> mean(k, 0.0), stddev(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    corr[i][i] = 1.0;
    if (n == 0) continue;
    for (std::size_t t = 0; t < n; ++t) {
      mean[i] += markets[i].prices.samples()[t];
    }
    mean[i] /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double d = markets[i].prices.samples()[t] - mean[i];
      var += d * d;
    }
    stddev[i] = std::sqrt(var / static_cast<double>(n));
  }
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      if (stddev[i] <= 0.0 || stddev[j] <= 0.0) continue;
      double cov = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        cov += (markets[i].prices.samples()[t] - mean[i]) *
               (markets[j].prices.samples()[t] - mean[j]);
      }
      cov /= static_cast<double>(n);
      const double rho =
          std::clamp(cov / (stddev[i] * stddev[j]), -1.0, 1.0);
      corr[i][j] = rho;
      corr[j][i] = rho;
    }
  }
  return corr;
}

}  // namespace

std::uint64_t market_seed(std::uint64_t seed, std::size_t market) noexcept {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(market);
}

std::vector<PriceTrace> market_price_traces(const MarketEngineConfig& config,
                                           sim::SimTime horizon) {
  CorrelatedPriceConfig price_config;
  for (const MarketDef& def : config.effective_markets()) {
    price_config.markets.push_back(def.price);
  }
  price_config.correlation = config.correlation;
  price_config.common_shock_rate_per_hour = config.common_shock_rate_per_hour;
  price_config.common_shock_multiplier = config.common_shock_multiplier;
  price_config.common_shock_decay_hours = config.common_shock_decay_hours;
  return CorrelatedPriceModel(std::move(price_config), config.seed,
                              /*stream=*/0)
      .generate(horizon);
}

std::vector<std::size_t> split_counts(std::size_t total,
                                      const std::vector<double>& weights) {
  const std::size_t k = weights.size();
  std::vector<std::size_t> counts(k, 0);
  if (k == 0 || total == 0) return counts;
  double sum = 0.0;
  for (const double w : weights) sum += std::max(0.0, w);
  if (sum <= 0.0) {
    counts[0] = total;
    return counts;
  }
  std::vector<double> remainder(k, 0.0);
  std::size_t assigned = 0;
  for (std::size_t m = 0; m < k; ++m) {
    const double exact =
        std::max(0.0, weights[m]) / sum * static_cast<double>(total);
    counts[m] = static_cast<std::size_t>(std::floor(exact));
    remainder[m] = exact - std::floor(exact);
    assigned += counts[m];
  }
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (remainder[a] != remainder[b]) return remainder[a] > remainder[b];
    return a < b;
  });
  for (std::size_t i = 0; assigned < total; ++i) {
    ++counts[order[i % k]];
    ++assigned;
  }
  return counts;
}

void apply_optimized_bids(std::vector<MarketDef>& defs,
                          const std::vector<double>& optimized_bids) {
  for (std::size_t m = 0; m < optimized_bids.size() && m < defs.size(); ++m) {
    defs[m].revocation.bid = optimized_bids[m];
  }
}

std::vector<double> blend_class_bids(
    const std::vector<std::vector<ClassBid>>& bids,
    const std::vector<double>& weights) {
  const std::size_t k = bids.size();
  if (k == 0) return {};
  std::size_t classes = bids.front().size();
  for (const std::vector<ClassBid>& market : bids) {
    classes = std::min(classes, market.size());
  }
  double weight_sum = 0.0;
  for (const double w : weights) weight_sum += std::max(0.0, w);
  std::vector<double> ceilings(classes, 0.0);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t m = 0; m < k; ++m) {
      const double w = weight_sum > 0.0
                           ? std::max(0.0, weights[m]) / weight_sum
                           : 1.0 / static_cast<double>(k);
      ceilings[c] += w * bids[m][c].bid;
    }
  }
  return ceilings;
}

std::vector<RevocationEvent> state_changes(
    const std::vector<RevocationEvent>& events) {
  std::vector<RevocationEvent> out;
  out.reserve(events.size());
  bool held = true;
  for (const RevocationEvent& event : events) {
    if (event.revoke == held) {
      out.push_back(event);
      held = !held;
    }
  }
  return out;
}

TransientMarketEngine::TransientMarketEngine(MarketEngineConfig config)
    : config_(std::move(config)) {}

void TransientMarketEngine::schedule_markets(CapacityPlan& plan,
                                             sim::SimTime horizon) const {
  std::vector<MarketDef> defs = config_.effective_markets();
  const std::size_t market_count = plan.markets.size();
  if (defs.size() != market_count) {
    throw std::invalid_argument(
        "TransientMarketEngine: plan was made for a different market list");
  }
  // A plan carrying optimized bids reschedules with them (rebinding a
  // realized fleet split must not silently fall back to the static bids).
  apply_optimized_bids(defs, plan.optimized_bids);

  std::vector<double> weights(market_count, 0.0);
  for (std::size_t m = 0; m < market_count; ++m) {
    weights[m] = plan.markets[m].weight;
  }
  const std::vector<std::size_t> counts =
      split_counts(plan.transient_servers.size(), weights);

  std::size_t next = 0;
  std::size_t total_events = 0;
  for (std::size_t m = 0; m < market_count; ++m) {
    MarketPlan& market = plan.markets[m];
    market.servers.assign(
        plan.transient_servers.begin() + static_cast<std::ptrdiff_t>(next),
        plan.transient_servers.begin() +
            static_cast<std::ptrdiff_t>(next + counts[m]));
    next += counts[m];
    RevocationEngine engine(defs[m].revocation,
                            market_seed(config_.seed, m));
    engine.set_price_trace(&market.prices);
    market.revocations = engine.schedule(market.servers, horizon);
    total_events += market.revocations.size();
  }

  plan.revocations.clear();
  plan.revocations.reserve(total_events);
  for (const MarketPlan& market : plan.markets) {
    plan.revocations.insert(plan.revocations.end(), market.revocations.begin(),
                            market.revocations.end());
  }
  std::sort(plan.revocations.begin(), plan.revocations.end(), schedule_before);
}

CapacityPlan TransientMarketEngine::plan(std::size_t server_count,
                                         sim::SimTime horizon,
                                         std::size_t deflatable_pools) const {
  CapacityPlan out;
  if (server_count == 0) return out;

  std::vector<MarketDef> defs = config_.effective_markets();
  validate_markets(defs);
  const std::size_t market_count = defs.size();

  std::vector<PriceTrace> traces = market_price_traces(config_, horizon);

  out.markets.resize(market_count);
  for (std::size_t m = 0; m < market_count; ++m) {
    out.markets[m].name = defs[m].name;
    out.markets[m].prices = std::move(traces[m]);
  }

  // Per-class bid optimization: replace each market's hand-set bid with
  // the mean of that market's per-class optima *before* the estimates
  // below, so the portfolio prices the markets it will actually ride.
  std::vector<std::vector<ClassBid>> class_bids(market_count);
  if (config_.optimize_bids) {
    BidOptimizerConfig bidding = config_.bidding;
    bidding.on_demand_price = defs.front().price.on_demand_price;
    const BidOptimizer optimizer(bidding);
    out.optimized_bids.resize(market_count, 0.0);
    for (std::size_t m = 0; m < market_count; ++m) {
      class_bids[m] = optimizer.optimize_classes(out.markets[m].prices,
                                                 defs[m].revocation);
      double bid_sum = 0.0;
      std::size_t deflatable_classes = 0;
      for (const ClassBid& bid : class_bids[m]) {
        if (bid.priority_class == 0) continue;  // on-demand never bids
        bid_sum += bid.bid;
        ++deflatable_classes;
      }
      out.optimized_bids[m] =
          deflatable_classes > 0
              ? bid_sum / static_cast<double>(deflatable_classes)
              : defs[m].revocation.bid;
    }
    apply_optimized_bids(defs, out.optimized_bids);
  }

  // Per-market estimates for the optimizer, from each market's own trace
  // and revocation model.
  std::vector<MarketSpec> specs(market_count);
  for (std::size_t m = 0; m < market_count; ++m) {
    RevocationEngine engine(defs[m].revocation, market_seed(config_.seed, m));
    engine.set_price_trace(&out.markets[m].prices);
    specs[m] = MarketSpec::from_observations(defs[m].name,
                                             out.markets[m].prices, engine);
    out.markets[m].spec = specs[m];
  }

  double on_demand_share = std::clamp(config_.on_demand_share, 0.0, 1.0);
  if (config_.use_portfolio) {
    const PortfolioManager manager(config_.portfolio);
    // Price risk is coupled by the correlation the traces actually
    // realized (configured coupling + common shocks).
    out.planned_correlation = empirical_correlation(out.markets);
    out.portfolio = manager.optimize(specs, out.planned_correlation);
    out.pool_weights = manager.pool_weights(out.portfolio, deflatable_pools);
    on_demand_share = out.portfolio.on_demand_weight();
  } else {
    out.portfolio.weights.assign(market_count + 1, 0.0);
    out.portfolio.weights[0] = on_demand_share;
    out.portfolio.expected_cost = on_demand_share;
    const double per_market =
        (1.0 - on_demand_share) / static_cast<double>(market_count);
    for (std::size_t m = 0; m < market_count; ++m) {
      out.portfolio.weights[m + 1] = per_market;
      out.portfolio.expected_cost += per_market * out.markets[m].prices.mean();
    }
    out.portfolio.expected_saving = 1.0 - out.portfolio.expected_cost;
    out.pool_weights.assign(deflatable_pools + 1, 0.0);
    out.pool_weights[0] = on_demand_share;
    for (std::size_t k = 1; k <= deflatable_pools; ++k) {
      out.pool_weights[k] =
          (1.0 - on_demand_share) / static_cast<double>(deflatable_pools);
    }
  }
  const std::vector<double> weights(out.portfolio.weights.begin() + 1,
                                    out.portfolio.weights.end());
  // Admission ceilings: the per-class optimal bids averaged over the
  // markets by portfolio weight — the price above which launching class c
  // transiently is worse than waiting.
  if (config_.optimize_bids) {
    out.class_ceilings = blend_class_bids(class_bids, weights);
  }
  for (std::size_t m = 0; m < market_count; ++m) {
    out.markets[m].weight = weights[m];
    out.markets[m].class_bids = std::move(class_bids[m]);
  }

  // Round the on-demand share to whole servers; a nonzero share always
  // buys at least one on-demand server (the revocation-free floor).
  out.on_demand_servers = static_cast<std::size_t>(
      std::llround(on_demand_share * static_cast<double>(server_count)));
  if (on_demand_share > 0.0 && out.on_demand_servers == 0) {
    out.on_demand_servers = 1;
  }
  out.on_demand_servers = std::min(out.on_demand_servers, server_count);

  out.transient_servers.clear();
  for (std::size_t s = out.on_demand_servers; s < server_count; ++s) {
    out.transient_servers.push_back(s);
  }
  schedule_markets(out, horizon);
  return out;
}

void TransientMarketEngine::rebind_transient_servers(
    CapacityPlan& plan, std::size_t on_demand_count,
    std::vector<std::size_t> transient_servers, sim::SimTime horizon) const {
  if (plan.markets.empty()) return;  // empty plan (server_count == 0)
  std::sort(transient_servers.begin(), transient_servers.end());
  plan.on_demand_servers = on_demand_count;
  plan.transient_servers = std::move(transient_servers);
  schedule_markets(plan, horizon);
}

CostReport TransientMarketEngine::cost_report(const CapacityPlan& plan,
                                              double cores_per_server,
                                              sim::SimTime horizon) const {
  CostReport report;
  const double hours = horizon.hours();
  if (hours <= 0.0 || cores_per_server <= 0.0) return report;
  const std::vector<MarketDef> defs = config_.effective_markets();
  validate_markets(defs);
  const double on_demand_rate = defs.front().price.on_demand_price;
  const std::size_t fleet =
      plan.on_demand_servers + plan.transient_servers.size();

  report.on_demand_core_hours =
      static_cast<double>(plan.on_demand_servers) * cores_per_server * hours;
  report.on_demand_cost = report.on_demand_core_hours * on_demand_rate;
  report.all_on_demand_cost =
      static_cast<double>(fleet) * cores_per_server * hours * on_demand_rate;

  // Bill each market's servers' *held* intervals at that market's spot
  // price: one pass over its sorted schedule, tracking per-server held
  // state. Servers start held at t=0 (a bid-under-water start revokes at
  // t=0).
  report.per_market.reserve(plan.markets.size());
  for (const MarketPlan& market : plan.markets) {
    CostReport::MarketCost entry;
    entry.name = market.name;
    entry.servers = market.servers.size();

    struct HeldState {
      sim::SimTime from;
      bool held = true;
    };
    std::unordered_map<std::size_t, HeldState> states;
    states.reserve(market.servers.size());
    for (const std::size_t server : market.servers) states[server] = {};

    const auto bill = [&](HeldState& state, sim::SimTime until) {
      entry.cost +=
          market.prices.integral_over(state.from, until) * cores_per_server;
      entry.core_hours += (until - state.from).hours() * cores_per_server;
    };
    for (const RevocationEvent& event : market.revocations) {
      const auto it = states.find(event.server);
      if (it == states.end()) continue;
      HeldState& state = it->second;
      if (event.revoke && state.held) {
        bill(state, event.at);
        state.held = false;
      } else if (!event.revoke && !state.held) {
        state.from = event.at;
        state.held = true;
      }
    }
    // Iterate in server order (not map order) so the floating-point
    // summation order — and thus the report — is bit-stable.
    for (const std::size_t server : market.servers) {
      HeldState& state = states[server];
      if (state.held) bill(state, horizon);
    }
    report.transient_cost += entry.cost;
    report.transient_core_hours += entry.core_hours;
    report.per_market.push_back(std::move(entry));
  }
  return report;
}

}  // namespace deflate::transient
