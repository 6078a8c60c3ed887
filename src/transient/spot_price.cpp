#include "transient/spot_price.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deflate::transient {

PriceTrace::PriceTrace(sim::SimTime step, std::vector<double> prices)
    : step_(step), prices_(std::move(prices)) {
  if (step.micros() <= 0) {
    throw std::invalid_argument("PriceTrace: step must be positive");
  }
}

double PriceTrace::at(sim::SimTime t) const noexcept {
  if (prices_.empty()) return 0.0;
  const std::int64_t idx = t.micros() / step_.micros();
  if (idx < 0) return prices_.front();
  if (idx >= static_cast<std::int64_t>(prices_.size())) return prices_.back();
  return prices_[static_cast<std::size_t>(idx)];
}

double PriceTrace::integral_over(sim::SimTime from, sim::SimTime to) const {
  if (prices_.empty() || to <= from) return 0.0;
  // Sum of price * overlap for each step interval [i*step, (i+1)*step).
  double total = 0.0;
  const std::int64_t step_us = step_.micros();
  const std::int64_t lo = std::max<std::int64_t>(0, from.micros() / step_us);
  for (std::int64_t i = lo; i < static_cast<std::int64_t>(prices_.size()); ++i) {
    const sim::SimTime seg_start = sim::SimTime::from_micros(i * step_us);
    if (seg_start >= to) break;
    const sim::SimTime seg_end = sim::SimTime::from_micros((i + 1) * step_us);
    const sim::SimTime a = std::max(seg_start, from);
    const sim::SimTime b = std::min(seg_end, to);
    if (b > a) total += prices_[static_cast<std::size_t>(i)] * (b - a).hours();
  }
  // Beyond the trace end the last price holds (clamped extrapolation).
  const sim::SimTime trace_end = duration();
  if (to > trace_end && !prices_.empty()) {
    const sim::SimTime a = std::max(from, trace_end);
    total += prices_.back() * (to - a).hours();
  }
  return total;
}

double PriceTrace::mean() const noexcept {
  if (prices_.empty()) return 0.0;
  double sum = 0.0;
  for (const double p : prices_) sum += p;
  return sum / static_cast<double>(prices_.size());
}

double PriceTrace::variance() const noexcept {
  if (prices_.size() < 2) return 0.0;
  const double m = mean();
  double sum = 0.0;
  for (const double p : prices_) sum += (p - m) * (p - m);
  return sum / static_cast<double>(prices_.size());
}

double PriceTrace::max() const noexcept {
  return prices_.empty() ? 0.0 : *std::max_element(prices_.begin(), prices_.end());
}

double PriceTrace::min() const noexcept {
  return prices_.empty() ? 0.0 : *std::min_element(prices_.begin(), prices_.end());
}

double PriceTrace::fraction_above(double threshold) const noexcept {
  if (prices_.empty()) return 0.0;
  std::size_t above = 0;
  for (const double p : prices_) {
    if (p > threshold) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(prices_.size());
}

sim::SimTime PriceTrace::duration() const noexcept {
  return sim::SimTime::from_micros(
      static_cast<std::int64_t>(prices_.size()) * step_.micros());
}

std::vector<std::vector<double>> CorrelatedPriceModel::uniform_correlation(
    std::size_t k, double rho) {
  std::vector<std::vector<double>> out(k, std::vector<double>(k, rho));
  for (std::size_t i = 0; i < k; ++i) out[i][i] = 1.0;
  return out;
}

std::vector<std::vector<double>> CorrelatedPriceModel::cholesky(
    const std::vector<std::vector<double>>& matrix) {
  const std::size_t n = matrix.size();
  constexpr double kTolerance = 1e-9;
  for (const auto& row : matrix) {
    if (row.size() != n) {
      throw std::invalid_argument("cholesky: matrix must be square");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::abs(matrix[i][j] - matrix[j][i]) > kTolerance) {
        throw std::invalid_argument("cholesky: matrix must be symmetric");
      }
    }
  }
  std::vector<std::vector<double>> factor(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = matrix[i][j];
      for (std::size_t k = 0; k < j; ++k) sum -= factor[i][k] * factor[j][k];
      if (i == j) {
        // Rank deficiency (e.g. two perfectly correlated markets) drives
        // the pivot to 0; clamp tiny negative round-off, reject genuinely
        // indefinite input.
        if (sum < -kTolerance) {
          throw std::invalid_argument(
              "cholesky: matrix is not positive semidefinite");
        }
        factor[i][i] = std::sqrt(std::max(0.0, sum));
      } else {
        factor[i][j] = factor[j][j] > 0.0 ? sum / factor[j][j] : 0.0;
      }
    }
  }
  return factor;
}

std::vector<PriceTrace> CorrelatedPriceModel::generate(
    sim::SimTime duration) const {
  const std::size_t market_count = config_.markets.size();
  if (market_count == 0) {
    throw std::invalid_argument("CorrelatedPriceModel: no markets");
  }
  const sim::SimTime step = config_.markets.front().step;
  const std::int64_t step_us = step.micros();
  if (step_us <= 0) {
    throw std::invalid_argument("CorrelatedPriceModel: step must be positive");
  }
  for (const SpotPriceConfig& market : config_.markets) {
    if (market.step != step) {
      throw std::invalid_argument(
          "CorrelatedPriceModel: markets must share one sampling step");
    }
  }
  if (!config_.correlation.empty()) {
    if (config_.correlation.size() != market_count) {
      throw std::invalid_argument(
          "CorrelatedPriceModel: correlation must be K x K");
    }
    for (std::size_t i = 0; i < market_count; ++i) {
      if (config_.correlation[i].size() != market_count ||
          std::abs(config_.correlation[i][i] - 1.0) > 1e-9) {
        throw std::invalid_argument(
            "CorrelatedPriceModel: correlation needs a unit diagonal "
            "(got a covariance-like matrix?)");
      }
    }
  }
  const auto factor = cholesky(config_.correlation.empty()
                                   ? uniform_correlation(market_count, 0.0)
                                   : config_.correlation);

  const auto steps = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (duration.micros() + step_us - 1) / step_us));
  const double dt = step.hours();
  const double sqrt_dt = std::sqrt(dt);

  util::Rng rng = util::Rng::keyed(seed_, stream_);
  std::vector<std::vector<double>> prices(market_count);
  for (auto& series : prices) series.reserve(steps);

  // Per-market Euler-Maruyama discretization of dp = kappa (mu - p) dt +
  // sigma dW, plus an additive shock term that jumps on Poisson arrivals
  // and decays exponentially (capacity-crunch spikes). The innovation dW
  // is the Cholesky-mixed draw; with one market it is the raw draw.
  std::vector<double> level(market_count), shock(market_count, 0.0);
  std::vector<double> shock_decay(market_count);
  std::vector<double> z(market_count), innovation(market_count);
  for (std::size_t m = 0; m < market_count; ++m) {
    level[m] = config_.markets[m].mean_price;
    shock_decay[m] = config_.markets[m].shock_decay_hours > 0.0
                         ? std::exp(-dt / config_.markets[m].shock_decay_hours)
                         : 0.0;
  }
  // Provider-wide crunch: a shared normalized level in [0, 1] that jumps
  // to 1 on Poisson arrivals and decays; each market sees it scaled by its
  // own mean. Gated so a zero rate consumes no extra draws.
  const bool has_common = config_.common_shock_rate_per_hour > 0.0;
  const double common_decay =
      config_.common_shock_decay_hours > 0.0
          ? std::exp(-dt / config_.common_shock_decay_hours)
          : 0.0;
  const double common_arrival =
      has_common ? 1.0 - std::exp(-config_.common_shock_rate_per_hour * dt)
                 : 0.0;
  double common = 0.0;

  for (std::size_t i = 0; i < steps; ++i) {
    for (std::size_t m = 0; m < market_count; ++m) z[m] = rng.normal();
    for (std::size_t m = 0; m < market_count; ++m) {
      double mixed = 0.0;
      for (std::size_t j = 0; j <= m; ++j) mixed += factor[m][j] * z[j];
      innovation[m] = mixed;
    }
    for (std::size_t m = 0; m < market_count; ++m) {
      const SpotPriceConfig& c = config_.markets[m];
      level[m] += c.reversion_rate * (c.mean_price - level[m]) * dt +
                  c.volatility * sqrt_dt * innovation[m];
      shock[m] *= shock_decay[m];
      if (c.shock_rate_per_hour > 0.0 &&
          rng.bernoulli(1.0 - std::exp(-c.shock_rate_per_hour * dt))) {
        shock[m] =
            std::max(shock[m], (c.shock_multiplier - 1.0) * c.mean_price);
      }
    }
    if (has_common) {
      common *= common_decay;
      if (rng.bernoulli(common_arrival)) common = 1.0;
    }
    for (std::size_t m = 0; m < market_count; ++m) {
      const SpotPriceConfig& c = config_.markets[m];
      double value = level[m] + shock[m];
      if (has_common) {
        value += common * (config_.common_shock_multiplier - 1.0) * c.mean_price;
      }
      prices[m].push_back(
          std::clamp(value, c.floor_price, c.on_demand_price * 2.0));
    }
  }

  std::vector<PriceTrace> out;
  out.reserve(market_count);
  for (std::size_t m = 0; m < market_count; ++m) {
    out.emplace_back(step, std::move(prices[m]));
  }
  return out;
}

PriceTrace SpotPriceModel::generate(sim::SimTime duration) const {
  CorrelatedPriceConfig one_market;
  one_market.markets = {config_};
  return std::move(
      CorrelatedPriceModel(std::move(one_market), seed_, stream_)
          .generate(duration)
          .front());
}

}  // namespace deflate::transient
