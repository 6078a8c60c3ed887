// Portfolio-driven capacity mixing (Sharma, Irwin & Shenoy,
// "Portfolio-driven Resource Management for Transient Cloud Servers",
// arXiv:1704.08738).
//
// The insight of that work is financial: transient markets are risky
// assets (cheap, volatile, revocable) and on-demand capacity is the
// risk-free asset. A cluster operator should hold a *portfolio* of
// markets chosen by Markowitz mean-variance optimization — minimize
//
//   cost(w) = sum_i w_i * c_i  +  alpha * w^T Sigma w
//
// over the probability simplex, where c_i is the effective per-core-hour
// cost of market i (spot price plus the expected cost of its revocations)
// and Sigma couples markets through price variance and their pairwise
// price correlation. The risk-aversion alpha trades cost for stability,
// and an on-demand floor guarantees a minimum fraction of revocation-free
// capacity for the interactive tier.
//
// The optimizer is a deterministic projected-gradient descent — no RNG —
// so identical inputs give bit-identical weights on every platform.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "transient/revocation.hpp"
#include "transient/spot_price.hpp"

namespace deflate::transient {

/// One purchasable capacity market. Index 0 of every portfolio is
/// implicitly the on-demand market (price 1.0, zero variance, zero
/// revocations); MarketSpec describes the transient alternatives.
struct MarketSpec {
  std::string name = "spot";
  /// Expected spot price per core-hour (on-demand = 1.0).
  double expected_price = 0.25;
  /// Variance of the spot price around its mean.
  double price_variance = 0.01;
  /// Expected server revocations per hour in this market.
  double revocation_rate_per_hour = 1.0 / 24.0;

  /// Estimates a market from an observed price trace and revocation model
  /// (the "portfolio construction from market history" step of Sharma et
  /// al. §4).
  [[nodiscard]] static MarketSpec from_observations(
      std::string name, const PriceTrace& trace, const RevocationEngine& engine);
};

struct PortfolioConfig {
  /// Risk-aversion alpha: 0 = pure cost minimization, larger = flee
  /// volatile markets sooner.
  double risk_aversion = 2.0;
  /// Minimum weight of the on-demand asset (revocation-free floor for the
  /// interactive tier).
  double on_demand_floor = 0.1;
  /// Cost, in equivalent core-hours, of absorbing one revocation on one
  /// core (re-placement, deflation churn, cold caches). Converts
  /// revocation rates into the effective-cost term.
  double revocation_penalty_core_hours = 2.0;
  /// Projected-gradient iterations / step size.
  std::size_t iterations = 2000;
  double learning_rate = 0.05;
};

struct PortfolioResult {
  /// weights[0] = on-demand, weights[1..] = markets, sum to 1.
  std::vector<double> weights;
  /// Expected per-core-hour cost of the mix (on-demand = 1.0).
  double expected_cost = 1.0;
  /// Portfolio variance w^T Sigma w (risk term, without alpha).
  double risk = 0.0;
  /// 1 - expected_cost: fractional saving vs an all-on-demand fleet.
  double expected_saving = 0.0;

  [[nodiscard]] double on_demand_weight() const {
    return weights.empty() ? 1.0 : weights.front();
  }
  [[nodiscard]] double transient_weight() const {
    return 1.0 - on_demand_weight();
  }
};

class PortfolioManager {
 public:
  explicit PortfolioManager(PortfolioConfig config) noexcept
      : config_(config) {}

  /// Mean-variance optimal weights over {on-demand} + markets, with the
  /// K x K price correlation across the transient markets (row/column i
  /// maps to markets[i]; the on-demand asset stays risk-free). Empty =
  /// identity; one market has no off-diagonal term, so its matrix does
  /// not matter. Deterministic; throws if `markets` is empty.
  [[nodiscard]] PortfolioResult optimize(
      std::span<const MarketSpec> markets,
      const std::vector<std::vector<double>>& correlation) const;

  /// Maps a portfolio onto ClusterPartitions pool weights: pool 0 carries
  /// the on-demand weight, and the transient weight is split across
  /// `deflatable_pools` priority pools proportionally to `priority_mix`
  /// (uniform when empty).
  [[nodiscard]] std::vector<double> pool_weights(
      const PortfolioResult& result, std::size_t deflatable_pools,
      std::span<const double> priority_mix = {}) const;

  [[nodiscard]] const PortfolioConfig& config() const noexcept {
    return config_;
  }

 private:
  PortfolioConfig config_;
};

}  // namespace deflate::transient
