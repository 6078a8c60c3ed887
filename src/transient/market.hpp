// TransientMarketEngine: the facade that turns a plain cluster into a
// transient one. It owns the spot-price processes (one per market, coupled
// by a correlation matrix), one revocation engine per market and the
// portfolio manager, and produces a CapacityPlan — which servers are
// bought on-demand vs. on which transient market, the partition pool
// weights implied by the portfolio, the per-market revocation schedules,
// and the per-market cost accounting against an all-on-demand baseline.
//
// A single market is one MarketDef through the same K-market path: the
// config's `price`/`revocation` pair is planned as that one entry
// (tests/test_transient_multimarket.cpp pins it against the listed
// one-entry plan).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "transient/bidding.hpp"
#include "transient/portfolio.hpp"
#include "transient/revocation.hpp"
#include "transient/spot_price.hpp"

namespace deflate::transient {

/// One purchasable transient market (a zone / instance type): its own
/// spot-price process and its own revocation model + bid.
struct MarketDef {
  std::string name = "spot";
  SpotPriceConfig price;
  RevocationConfig revocation;
};

struct MarketEngineConfig {
  /// The single market's parameters, planned as one "spot" MarketDef when
  /// `markets` is empty.
  SpotPriceConfig price;
  RevocationConfig revocation;
  PortfolioConfig portfolio;
  /// Multi-market mode: when non-empty these markets replace the
  /// price/revocation pair above. One "spot" entry with that pair is the
  /// same plan, decision for decision.
  std::vector<MarketDef> markets;
  /// K x K innovation correlation across `markets` (shared market factor
  /// plus per-market noise, via Cholesky). This couples the *generated*
  /// traces; the portfolio optimizer prices the correlation the traces
  /// actually realize, which folds in the common shocks below. Empty =
  /// identity.
  std::vector<std::vector<double>> correlation;
  /// Provider-wide capacity crunches that spike every market at once
  /// (see CorrelatedPriceConfig); 0 disables.
  double common_shock_rate_per_hour = 0.0;
  double common_shock_multiplier = 4.0;
  double common_shock_decay_hours = 1.5;
  /// Per-class bid optimization (transient/bidding.hpp): replace each
  /// market's hand-set `RevocationConfig::bid` with the optimizer's fleet
  /// bid (the mean of the per-class optima) and publish per-class
  /// admission price ceilings in the plan (`CapacityPlan::class_ceilings`,
  /// consumed by the BidOptimized admission policy in
  /// src/cluster/admission.hpp). Off by default: the legacy static bids
  /// stay bit-identical.
  bool optimize_bids = false;
  BidOptimizerConfig bidding;
  /// When true the on-demand/transient split comes from mean-variance
  /// optimization; when false, from `on_demand_share` directly.
  bool use_portfolio = true;
  /// Fixed on-demand share when the portfolio optimizer is disabled.
  double on_demand_share = 0.0;
  std::uint64_t seed = 42;

  /// The markets actually planned over: `markets`, or the legacy pair
  /// wrapped as a single "spot" market.
  [[nodiscard]] std::vector<MarketDef> effective_markets() const {
    if (!markets.empty()) return markets;
    return {MarketDef{"spot", price, revocation}};
  }

  /// Fills `markets` with `count` copies of the legacy price/revocation
  /// pair (named "<name_prefix>-0" …) coupled by a uniform pairwise
  /// `rho` — the "one market, K zones" setup the CLI, examples and
  /// benches share.
  void replicate_markets(std::size_t count, double rho,
                         const std::string& name_prefix = "spot") {
    markets.clear();
    MarketDef def{name_prefix, price, revocation};
    for (std::size_t m = 0; m < count; ++m) {
      def.name = name_prefix + "-" + std::to_string(m);
      markets.push_back(def);
    }
    correlation = CorrelatedPriceModel::uniform_correlation(count, rho);
  }
};

/// One market's slice of a CapacityPlan.
struct MarketPlan {
  std::string name = "spot";
  /// Portfolio weight of this market (fraction of the whole fleet).
  double weight = 0.0;
  /// Global ids of the servers riding this market, ascending.
  std::vector<std::size_t> servers;
  /// This market's spot prices over the horizon.
  PriceTrace prices;
  /// Revoke/restore schedule for this market's servers only.
  std::vector<RevocationEvent> revocations;
  /// The estimates this market contributed to the optimizer.
  MarketSpec spec;
  /// Per-class optimal bids for this market (index = priority class;
  /// entry 0 is the on-demand class). Empty unless
  /// `MarketEngineConfig::optimize_bids`.
  std::vector<ClassBid> class_bids;
};

/// The engine's decision for one cluster + horizon.
struct CapacityPlan {
  /// Servers [0, on_demand_servers) are bought on-demand and are never
  /// revoked; the rest ride the transient markets.
  std::size_t on_demand_servers = 0;
  /// Union of every market's servers, ascending.
  std::vector<std::size_t> transient_servers;
  /// Portfolio solution (weights[0] = on-demand, weights[m+1] =
  /// markets[m]); present even with use_portfolio = false (degenerate
  /// fixed-share weights) for reporting.
  PortfolioResult portfolio;
  /// ClusterPartitions-compatible pool weights (pool 0 = on-demand).
  std::vector<double> pool_weights;
  /// Merged revoke/restore schedule across every market.
  std::vector<RevocationEvent> revocations;
  /// Per-market slices; size >= 1 whenever the plan is non-empty.
  std::vector<MarketPlan> markets;
  /// Bids actually used for the revocation schedules when the bid
  /// optimizer ran, index-aligned with `markets` (each market's mean over
  /// its per-class optima). Empty = the hand-set `MarketDef` bids.
  std::vector<double> optimized_bids;
  /// Per-priority-class admission price ceilings (portfolio-weight-averaged
  /// per-class optimal bids across the markets; index 0 = on-demand,
  /// unused). Empty unless `MarketEngineConfig::optimize_bids` — the
  /// BidOptimized admission policy defers a class while the spot quote
  /// exceeds its entry.
  std::vector<double> class_ceilings;
  /// The correlation matrix the portfolio actually optimized against: the
  /// realized empirical correlation of the markets' traces ({{1}} for one
  /// market; empty only when the portfolio optimizer is off). The online
  /// control plane (src/control) seeds its CorrelationEstimator from this
  /// so a `static` forecast reproduces the planned weights bit-exactly.
  std::vector<std::vector<double>> planned_correlation;
};

/// Cost of running the planned fleet over the horizon, against the
/// all-on-demand counterfactual. Prices are per core-hour; servers are
/// billed on their core count while held (a revoked server is not billed).
struct CostReport {
  /// One market's share of the transient bill.
  struct MarketCost {
    std::string name = "spot";
    std::size_t servers = 0;
    double core_hours = 0.0;  ///< held (billable)
    double cost = 0.0;        ///< integral of this market's spot price

    bool operator==(const MarketCost&) const = default;
  };

  double on_demand_core_hours = 0.0;
  double transient_core_hours = 0.0;  ///< held (billable) core-hours
  double on_demand_cost = 0.0;
  double transient_cost = 0.0;        ///< integral of spot price over held time
  double all_on_demand_cost = 0.0;    ///< same fleet, every server on-demand
  /// Per-market attribution, index-aligned with CapacityPlan::markets;
  /// sums to transient_core_hours / transient_cost.
  std::vector<MarketCost> per_market;
  /// Timed-migration throughput charge (filled by the simulator when the
  /// migration engine runs; zero under instant migration): core-hours the
  /// fleet's VMs spent paused in stop-and-copy / checkpoint-restore
  /// windows, billed at the on-demand rate as lost serving capacity.
  double migration_downtime_core_hours = 0.0;
  double migration_downtime_cost = 0.0;
  /// Admission-layer unserved demand (filled by the simulator): core-hours
  /// of VM demand the admission controller turned away — expired deferrals
  /// in full, plus the arrival→launch delay of deferrals that were
  /// eventually admitted — billed at the on-demand rate as the cost of
  /// buying replacement capacity for the turned-away work. Zero under the
  /// AdmitAll policy (and in every pre-admission run).
  double admission_unserved_core_hours = 0.0;
  double admission_unserved_cost = 0.0;
  [[nodiscard]] double total_cost() const noexcept {
    return on_demand_cost + transient_cost + migration_downtime_cost +
           admission_unserved_cost;
  }
  /// Percent saved vs the all-on-demand fleet (positive = cheaper).
  [[nodiscard]] double saving_percent() const noexcept {
    return all_on_demand_cost > 0.0
               ? 100.0 * (1.0 - total_cost() / all_on_demand_cost)
               : 0.0;
  }

  bool operator==(const CostReport&) const = default;
};

// --- plan rules ------------------------------------------------------------
// The engine plans with these, and the online control plane (src/control)
// calls the same functions when it re-plans or regenerates a schedule, so
// a re-derived decision is the planned one bit for bit.

/// Seed of market m's revocation stream: the plan seed plus m times the
/// 64-bit golden ratio (0x9e3779b97f4a7c15). Market 0 keeps the plan seed,
/// and a schedule suffix regenerated from this seed continues the plan's
/// per-server keyed streams.
[[nodiscard]] std::uint64_t market_seed(std::uint64_t seed,
                                        std::size_t market) noexcept;

/// The markets' coupled price traces over [0, horizon), drawn from the
/// config's seed (stream 0). One market with no common shocks is
/// SpotPriceModel's trace for the same seed.
[[nodiscard]] std::vector<PriceTrace> market_price_traces(
    const MarketEngineConfig& config, sim::SimTime horizon);

/// Splits `total` servers across markets proportionally to `weights` by
/// largest-remainder rounding (ties to the lower index). A non-positive
/// total weight puts everything in market 0.
[[nodiscard]] std::vector<std::size_t> split_counts(
    std::size_t total, const std::vector<double>& weights);

/// Replaces each market's hand-set bid with the plan's optimized one
/// (`CapacityPlan::optimized_bids`; empty leaves `defs` as they are).
void apply_optimized_bids(std::vector<MarketDef>& defs,
                          const std::vector<double>& optimized_bids);

/// Per-class admission ceilings: class c's bid averaged over the markets
/// (`bids[m]` is market m's per-class list) by `weights`, negative weights
/// counting as zero, or uniformly when no weight is positive. Classes
/// missing from any market's list are left out.
[[nodiscard]] std::vector<double> blend_class_bids(
    const std::vector<std::vector<ClassBid>>& bids,
    const std::vector<double>& weights);

/// The events of one server's time-ordered schedule that change its
/// state, starting from held: the first revoke, the next restore, and so
/// on. Repairs the alternation where two schedules are spliced.
[[nodiscard]] std::vector<RevocationEvent> state_changes(
    const std::vector<RevocationEvent>& events);

class TransientMarketEngine {
 public:
  explicit TransientMarketEngine(MarketEngineConfig config);

  /// Builds the full plan for `server_count` servers over [0, horizon):
  /// generates the price trace, solves the portfolio, splits the fleet and
  /// schedules revocations. Deterministic in (config, server_count,
  /// horizon).
  [[nodiscard]] CapacityPlan plan(std::size_t server_count,
                                  sim::SimTime horizon,
                                  std::size_t deflatable_pools = 4) const;

  /// Bills the planned fleet over [0, horizon): on-demand servers at the
  /// sticker rate, each market's servers at that market's spot price while
  /// held (the plan's own revocation schedules define the down intervals).
  [[nodiscard]] CostReport cost_report(const CapacityPlan& plan,
                                       double cores_per_server,
                                       sim::SimTime horizon) const;

  /// Re-anchors an existing plan on a realized fleet split (e.g. after
  /// ClusterPartitions rounding scattered pool 0 across shards): re-splits
  /// `transient_servers` across the plan's markets proportionally to the
  /// portfolio weights and regenerates every revocation schedule (the
  /// per-server keyed streams keep this deterministic). Price traces and
  /// portfolio weights are untouched.
  void rebind_transient_servers(CapacityPlan& plan,
                                std::size_t on_demand_count,
                                std::vector<std::size_t> transient_servers,
                                sim::SimTime horizon) const;

  [[nodiscard]] const MarketEngineConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Splits plan.transient_servers across plan.markets by weight and
  /// regenerates per-market + merged revocation schedules.
  void schedule_markets(CapacityPlan& plan, sim::SimTime horizon) const;

  MarketEngineConfig config_;
};

}  // namespace deflate::transient
