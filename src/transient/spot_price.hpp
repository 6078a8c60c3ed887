// Spot-price process for transient capacity markets.
//
// Transient servers are priced by a dynamic spot market (Sharma et al.,
// "Portfolio-driven Resource Management for Transient Cloud Servers",
// arXiv:1704.08738): prices hover far below the on-demand rate, revert
// towards a long-run mean, and occasionally spike when the provider
// reclaims surplus capacity. We model this as a discretized
// Ornstein-Uhlenbeck process with Poisson shock spikes that decay
// exponentially — the standard mean-reverting + jump model for spot
// markets. All randomness flows through util::Rng keyed by
// (seed, stream), so sweeps are bit-identical across thread counts.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace deflate::transient {

struct SpotPriceConfig {
  /// Normalized on-demand rate (matches cluster::kOnDemandRate).
  double on_demand_price = 1.0;
  /// Long-run mean of the spot price ("60-90% discount" regime).
  double mean_price = 0.25;
  /// Mean-reversion rate kappa, per hour.
  double reversion_rate = 0.6;
  /// Diffusion volatility sigma, per sqrt(hour).
  double volatility = 0.04;
  /// Poisson rate of capacity-crunch price spikes, per hour.
  double shock_rate_per_hour = 1.0 / 24.0;
  /// Spike peak as a multiple of the long-run mean.
  double shock_multiplier = 4.0;
  /// Exponential decay time-constant of a spike, hours.
  double shock_decay_hours = 1.5;
  /// Hard floor (spot markets never trade at zero).
  double floor_price = 0.05;
  /// Sampling interval of the generated trace.
  sim::SimTime step = sim::SimTime::from_minutes(5);
};

/// Immutable step-function price trace sampled on a fixed interval.
class PriceTrace {
 public:
  PriceTrace() = default;
  PriceTrace(sim::SimTime step, std::vector<double> prices);

  /// Price at time t (clamped to the trace ends).
  [[nodiscard]] double at(sim::SimTime t) const noexcept;
  /// Integral of price over [from, to], in price * hours.
  [[nodiscard]] double integral_over(sim::SimTime from, sim::SimTime to) const;

  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double min() const noexcept;

  /// Fraction of trace time with price strictly above `threshold`.
  [[nodiscard]] double fraction_above(double threshold) const noexcept;

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return prices_;
  }
  [[nodiscard]] sim::SimTime step() const noexcept { return step_; }
  [[nodiscard]] sim::SimTime duration() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return prices_.empty(); }

 private:
  sim::SimTime step_ = sim::SimTime::from_minutes(5);
  std::vector<double> prices_;
};

/// K correlated spot markets. Each market follows its own OU + shock
/// process (one SpotPriceConfig per market, all sampled on a common step),
/// but the Gaussian innovations are coupled through a correlation matrix:
/// the Cholesky factor L turns K iid draws z into e = L z, which is the
/// "shared market factor plus per-market noise" decomposition — capacity
/// crunches at one provider leak into its other zones/instance types. An
/// optional *common* shock models provider-wide crunches that spike every
/// market simultaneously (scaled by each market's long-run mean).
struct CorrelatedPriceConfig {
  /// Per-market OU/shock parameters. All entries must share `step`.
  std::vector<SpotPriceConfig> markets;
  /// K x K symmetric PSD innovation correlation; empty = identity
  /// (independent markets). Diagonal must be 1.
  std::vector<std::vector<double>> correlation;
  /// Poisson rate of provider-wide crunches hitting all markets at once.
  /// 0 disables the extra draw (SpotPriceModel's one market has none).
  double common_shock_rate_per_hour = 0.0;
  /// Peak of a common crunch as a multiple of each market's own mean.
  double common_shock_multiplier = 4.0;
  /// Exponential decay time-constant of a common crunch, hours.
  double common_shock_decay_hours = 1.5;
};

/// Generates the K coupled traces. Deterministic in (config, seed,
/// stream). This is the only OU + shock recurrence: one market is K = 1,
/// and SpotPriceModel is that case.
class CorrelatedPriceModel {
 public:
  explicit CorrelatedPriceModel(CorrelatedPriceConfig config,
                                std::uint64_t seed = 42,
                                std::uint64_t stream = 0)
      : config_(std::move(config)), seed_(seed), stream_(stream) {}

  /// One trace per market, index-aligned with config().markets.
  [[nodiscard]] std::vector<PriceTrace> generate(sim::SimTime duration) const;

  [[nodiscard]] const CorrelatedPriceConfig& config() const noexcept {
    return config_;
  }

  /// Lower-triangular Cholesky factor of a symmetric PSD matrix, tolerant
  /// of rank deficiency (correlation 1.0 between markets is legal: the
  /// deficient column is zeroed). Throws on asymmetric or indefinite input.
  [[nodiscard]] static std::vector<std::vector<double>> cholesky(
      const std::vector<std::vector<double>>& matrix);

  /// Identity + uniform pairwise `rho` off the diagonal.
  [[nodiscard]] static std::vector<std::vector<double>> uniform_correlation(
      std::size_t k, double rho);

 private:
  CorrelatedPriceConfig config_;
  std::uint64_t seed_ = 42;
  std::uint64_t stream_ = 0;
};

/// One market's mean-reverting + shock price trace: a one-market
/// CorrelatedPriceModel with the same seed and stream (no correlation, no
/// common shocks). Deterministic in (config, seed, stream); `generate` is
/// const and reusable.
class SpotPriceModel {
 public:
  explicit SpotPriceModel(SpotPriceConfig config, std::uint64_t seed = 42,
                          std::uint64_t stream = 0) noexcept
      : config_(config), seed_(seed), stream_(stream) {}

  [[nodiscard]] PriceTrace generate(sim::SimTime duration) const;

  [[nodiscard]] const SpotPriceConfig& config() const noexcept {
    return config_;
  }

 private:
  SpotPriceConfig config_;
  std::uint64_t seed_ = 42;
  std::uint64_t stream_ = 0;
};

}  // namespace deflate::transient
