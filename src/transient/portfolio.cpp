#include "transient/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace deflate::transient {

namespace {

/// Euclidean projection onto the simplex {w : w >= lower, sum w = 1}
/// (Duchi et al. 2008, shifted by the per-coordinate lower bounds).
std::vector<double> project_simplex(std::vector<double> w,
                                    const std::vector<double>& lower) {
  const std::size_t n = w.size();
  double slack = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] -= lower[i];
    slack -= lower[i];
  }
  if (slack <= 0.0) {
    // Floors consume everything: return the floors, renormalized.
    std::vector<double> out = lower;
    const double total = std::accumulate(out.begin(), out.end(), 0.0);
    for (double& x : out) x /= total;
    return out;
  }
  // Project the shifted vector onto the scaled simplex {v >= 0, sum = slack}.
  std::vector<double> sorted = w;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double cumulative = 0.0;
  double theta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cumulative += sorted[i];
    const double candidate =
        (cumulative - slack) / static_cast<double>(i + 1);
    if (sorted[i] - candidate > 0.0) theta = candidate;
  }
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = std::max(0.0, w[i] - theta) + lower[i];
  }
  return w;
}

}  // namespace

MarketSpec MarketSpec::from_observations(std::string name,
                                         const PriceTrace& trace,
                                         const RevocationEngine& engine) {
  MarketSpec spec;
  spec.name = std::move(name);
  spec.expected_price = trace.mean();
  spec.price_variance = trace.variance();
  spec.revocation_rate_per_hour = engine.expected_rate_per_hour();
  return spec;
}

PortfolioResult PortfolioManager::optimize(
    std::span<const MarketSpec> markets,
    const std::vector<std::vector<double>>& correlation) const {
  if (markets.empty()) {
    throw std::invalid_argument("PortfolioManager: no transient markets");
  }
  if (!correlation.empty() && correlation.size() != markets.size()) {
    throw std::invalid_argument(
        "PortfolioManager: correlation must be K x K over the markets");
  }
  for (const auto& row : correlation) {
    if (row.size() != markets.size()) {
      throw std::invalid_argument(
          "PortfolioManager: correlation must be K x K over the markets");
    }
  }
  const std::size_t n = markets.size() + 1;  // + on-demand asset

  // Effective cost vector: on-demand pays the sticker price; a transient
  // market pays its spot price plus the expected revocation penalty.
  std::vector<double> cost(n, 0.0);
  cost[0] = 1.0;
  for (std::size_t i = 0; i < markets.size(); ++i) {
    cost[i + 1] = markets[i].expected_price +
                  markets[i].revocation_rate_per_hour *
                      config_.revocation_penalty_core_hours;
  }

  // Covariance: on-demand is risk-free; transient markets carry their own
  // price variance plus a revocation-rate variance proxy, coupled by the
  // markets' price correlation (provider-wide capacity crunches).
  std::vector<std::vector<double>> sigma(n, std::vector<double>(n, 0.0));
  std::vector<double> stddev(n, 0.0);
  for (std::size_t i = 0; i < markets.size(); ++i) {
    const double revocation_var = markets[i].revocation_rate_per_hour *
                                  config_.revocation_penalty_core_hours *
                                  config_.revocation_penalty_core_hours;
    const double var = markets[i].price_variance + revocation_var;
    sigma[i + 1][i + 1] = var;
    stddev[i + 1] = std::sqrt(std::max(0.0, var));
  }
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 1; j < n; ++j) {
      if (i == j) continue;
      const double rho =
          correlation.empty()
              ? 0.0
              : std::clamp(correlation[i - 1][j - 1], -1.0, 1.0);
      sigma[i][j] = rho * stddev[i] * stddev[j];
    }
  }

  std::vector<double> lower(n, 0.0);
  lower[0] = std::clamp(config_.on_demand_floor, 0.0, 1.0);

  // Start from uniform and descend cost(w) + alpha w^T Sigma w.
  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  w = project_simplex(std::move(w), lower);
  std::vector<double> grad(n, 0.0);
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double sw = 0.0;
      for (std::size_t j = 0; j < n; ++j) sw += sigma[i][j] * w[j];
      grad[i] = cost[i] + 2.0 * config_.risk_aversion * sw;
    }
    for (std::size_t i = 0; i < n; ++i) {
      w[i] -= config_.learning_rate * grad[i];
    }
    w = project_simplex(std::move(w), lower);
  }

  PortfolioResult result;
  result.weights = w;
  result.expected_cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) result.expected_cost += w[i] * cost[i];
  result.risk = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      result.risk += w[i] * sigma[i][j] * w[j];
    }
  }
  result.expected_saving = 1.0 - result.expected_cost;
  return result;
}

std::vector<double> PortfolioManager::pool_weights(
    const PortfolioResult& result, std::size_t deflatable_pools,
    std::span<const double> priority_mix) const {
  if (deflatable_pools == 0) {
    throw std::invalid_argument("pool_weights: need at least one pool");
  }
  std::vector<double> weights(deflatable_pools + 1, 0.0);
  weights[0] = result.on_demand_weight();
  const double transient = result.transient_weight();
  if (!priority_mix.empty() && priority_mix.size() != deflatable_pools) {
    throw std::invalid_argument("pool_weights: priority_mix size mismatch");
  }
  double mix_total = 0.0;
  for (const double m : priority_mix) mix_total += m;
  for (std::size_t k = 0; k < deflatable_pools; ++k) {
    const double share =
        priority_mix.empty() || mix_total <= 0.0
            ? 1.0 / static_cast<double>(deflatable_pools)
            : priority_mix[k] / mix_total;
    weights[k + 1] = transient * share;
  }
  return weights;
}

}  // namespace deflate::transient
