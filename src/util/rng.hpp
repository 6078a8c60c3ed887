// Deterministic random-number generation for simulations.
//
// Every stochastic component in the library draws from an Rng that is keyed
// by (global seed, stream id). Parallel sweeps hand each work item its own
// derived stream, so results are bit-identical regardless of thread count
// or iteration order (see "Execution model" in docs/ARCHITECTURE.md).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

namespace deflate::util {

/// SplitMix64: fast 64-bit mixer used for seeding and stream derivation.
/// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Good statistical quality, tiny
/// state, and cheap enough to give every VM/request its own generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 mixer(seed);
    for (auto& word : state_) word = mixer.next();
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// High-level generator with the distributions the simulators need.
/// All sampling is implemented in-repo (not via <random> distributions) so
/// sequences are reproducible across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

  /// Derives an independent stream for work item `id`; the mapping is a
  /// bijective mix so streams do not overlap in practice.
  [[nodiscard]] Rng derive(std::uint64_t id) const noexcept {
    SplitMix64 mixer(base_seed_mix_ ^ (id * 0x9e3779b97f4a7c15ULL + 0x1ULL));
    return Rng(mixer.next());
  }

  /// Remembers the seed-material so `derive` is a pure function of
  /// (seed, id), independent of how many numbers were drawn.
  static Rng keyed(std::uint64_t seed, std::uint64_t stream) noexcept {
    Rng r(seed);
    return r.derive(stream);
  }

  std::uint64_t next_u64() noexcept { return engine_.next(); }

  /// Uniform in [0, 1): 53-bit mantissa resolution.
  double u01() noexcept {
    return static_cast<double>(engine_.next() >> 11) * 0x1.0p-53;
  }

  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * u01(); }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1ULL;
    // Modulo bias is < 2^-40 for ranges under 2^24; acceptable for sims.
    return lo + static_cast<std::int64_t>(engine_.next() % range);
  }

  bool bernoulli(double p) noexcept { return u01() < p; }

  /// Standard normal via Box-Muller (cached spare for the pair).
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u1 = u01();
    while (u1 <= 0.0) u1 = u01();
    const double u2 = u01();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * std::numbers::pi * u2);
    have_spare_ = true;
    return mag * std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mu, double sigma) noexcept { return mu + sigma * normal(); }

  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with the given rate (mean = 1/rate).
  double exponential(double rate) noexcept {
    double u = u01();
    while (u <= 0.0) u = u01();
    return -std::log(u) / rate;
  }

  /// Pareto with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) noexcept {
    double u = u01();
    while (u <= 0.0) u = u01();
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Bounded Pareto on [lo, hi]; heavy-tailed lifetimes/page sizes.
  double bounded_pareto(double lo, double hi, double alpha) noexcept {
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    double u = u01();
    while (u >= 1.0) u = u01();
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  }

  /// Samples an index from non-negative weights. Throws if all weights
  /// are zero or the span is empty.
  std::size_t weighted_index(std::span<const double> weights) {
    double total = 0.0;
    for (const double w : weights) total += w;
    if (weights.empty() || total <= 0.0) {
      throw std::invalid_argument("weighted_index: no positive weight");
    }
    double x = u01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0.0) return i;
    }
    return weights.size() - 1;
  }

  /// Beta-like sampler in [0,1] built from a clamped logit-normal; used for
  /// per-VM base utilizations where we need unimodal bounded draws.
  double logit_normal(double mu, double sigma) noexcept {
    const double z = normal(mu, sigma);
    return 1.0 / (1.0 + std::exp(-z));
  }

 private:
  explicit Rng(Xoshiro256 engine) noexcept : engine_(engine) {}

  Xoshiro256 engine_;
  std::uint64_t base_seed_mix_ = engine_.next();
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace deflate::util
