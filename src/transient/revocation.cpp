#include "transient/revocation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deflate::transient {

const char* revocation_model_name(RevocationModel m) noexcept {
  switch (m) {
    case RevocationModel::None: return "none";
    case RevocationModel::Poisson: return "poisson";
    case RevocationModel::TemporallyConstrained: return "temporal";
    case RevocationModel::PriceCrossing: return "price";
  }
  return "?";
}

std::string revocation_model_of(const RevocationConfig& config) {
  return config.model_name.empty() ? revocation_model_name(config.model)
                                   : config.model_name;
}

namespace {

/// Samples one temporally-constrained lifetime (hours) by inverting the
/// bathtub CDF; always <= max_lifetime_hours.
double sample_constrained_lifetime(const RevocationConfig& config,
                                   util::Rng& rng) {
  const double T = config.max_lifetime_hours;
  const double w = std::clamp(config.early_fraction, 0.0, 1.0);
  const double tau = std::max(1e-6, config.early_tau_hours);
  const double k = std::max(1.0, config.late_shape);
  // Bathtub CDF on (0, T]: a truncated-exponential early component (infant
  // mortality) mixed with a polynomial late component whose mass piles up
  // against the lifetime cap. F(T) = 1, so every instance is reclaimed by
  // T — the temporal constraint of Kadupitiya et al.
  const double early_norm = 1.0 - std::exp(-T / tau);
  const auto cdf = [&](double t) {
    const double early = (1.0 - std::exp(-t / tau)) / early_norm;
    const double late = std::pow(t / T, k);
    return w * early + (1.0 - w) * late;
  };
  const double u = rng.u01();
  // Invert by bisection: F is strictly increasing on (0, T].
  double lo = 0.0, hi = T;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cdf(mid) < u) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

std::vector<RevocationEvent> RenewalRevocationModel::schedule_for(
    const RevocationConfig& config, std::uint64_t seed, std::size_t server,
    sim::SimTime horizon, const PriceTrace* /*prices*/) const {
  std::vector<RevocationEvent> events;
  // At least one tick so a revoke and its restore never share a timestamp
  // (the simulator orders restores before revokes at equal times).
  const sim::SimTime recovery =
      std::max(sim::SimTime::from_hours(std::max(0.0, config.recovery_hours)),
               sim::SimTime::from_micros(1));
  // An acquire/revoke renewal process. The stream is keyed by the server
  // id so the schedule is independent of which other servers exist and of
  // generation order.
  util::Rng rng = util::Rng::keyed(seed, 0x7261'6e73'6965'6e74ULL ^ server);
  sim::SimTime t;  // current acquisition time
  while (t < horizon) {
    const double lifetime_hours = sample_lifetime_hours(config, rng);
    const sim::SimTime down = t + sim::SimTime::from_hours(lifetime_hours);
    if (down >= horizon) break;
    events.push_back({down, server, /*revoke=*/true});
    const sim::SimTime up = down + recovery;
    if (up >= horizon) break;
    events.push_back({up, server, /*revoke=*/false});
    t = up;
  }
  return events;
}

namespace {

class NoneModel final : public RevocationModelPolicy {
 public:
  [[nodiscard]] std::vector<RevocationEvent> schedule_for(
      const RevocationConfig&, std::uint64_t, std::size_t, sim::SimTime,
      const PriceTrace*) const override {
    return {};
  }
  [[nodiscard]] double expected_rate_per_hour(
      const RevocationConfig&, const PriceTrace*) const noexcept override {
    return 0.0;
  }
};

class PoissonModel final : public RenewalRevocationModel {
 public:
  [[nodiscard]] double expected_rate_per_hour(
      const RevocationConfig& config,
      const PriceTrace*) const noexcept override {
    return config.poisson_rate_per_hour;
  }

 protected:
  [[nodiscard]] double sample_lifetime_hours(const RevocationConfig& config,
                                             util::Rng& rng) const override {
    return rng.exponential(std::max(1e-9, config.poisson_rate_per_hour));
  }
};

class TemporallyConstrainedModel final : public RenewalRevocationModel {
 public:
  [[nodiscard]] double expected_rate_per_hour(
      const RevocationConfig& config,
      const PriceTrace*) const noexcept override {
    // Renewal rate: one revocation per mean cycle (mean lifetime +
    // recovery). The bathtub mean is dominated by the late component:
    // E[L] ~ w * tau_eff + (1-w) * T * k/(k+1).
    const double T = std::max(1e-9, config.max_lifetime_hours);
    const double w = std::clamp(config.early_fraction, 0.0, 1.0);
    const double tau = std::max(1e-6, config.early_tau_hours);
    const double k = std::max(1.0, config.late_shape);
    const double early_mean = std::min(tau, T);
    const double late_mean = T * k / (k + 1.0);
    const double mean_lifetime = w * early_mean + (1.0 - w) * late_mean;
    return 1.0 / (mean_lifetime + std::max(0.0, config.recovery_hours));
  }

 protected:
  [[nodiscard]] double sample_lifetime_hours(const RevocationConfig& config,
                                             util::Rng& rng) const override {
    return sample_constrained_lifetime(config, rng);
  }
};

class PriceCrossingModel final : public RevocationModelPolicy {
 public:
  [[nodiscard]] std::vector<RevocationEvent> schedule_for(
      const RevocationConfig& config, std::uint64_t /*seed*/,
      std::size_t server, sim::SimTime horizon,
      const PriceTrace* prices) const override {
    std::vector<RevocationEvent> events;
    if (prices == nullptr || prices->empty()) {
      throw std::logic_error(
          "RevocationEngine: PriceCrossing needs a price trace");
    }
    // Market-wide: the server is held while price <= bid, revoked on the
    // upward crossing and restored on the downward crossing. Scanning the
    // step function gives exact crossing times. A bid already under water
    // at t=0 revokes immediately — capacity is never held at that price.
    const sim::SimTime step = prices->step();
    bool held = prices->at(sim::SimTime{}) <= config.bid;
    if (!held) events.push_back({sim::SimTime{}, server, /*revoke=*/true});
    for (sim::SimTime t = step; t < horizon; t += step) {
      const bool affordable = prices->at(t) <= config.bid;
      if (held && !affordable) {
        events.push_back({t, server, /*revoke=*/true});
        held = false;
      } else if (!held && affordable) {
        events.push_back({t, server, /*revoke=*/false});
        held = true;
      }
    }
    return events;
  }

  [[nodiscard]] double expected_rate_per_hour(
      const RevocationConfig& config,
      const PriceTrace* prices) const noexcept override {
    if (prices == nullptr || prices->empty()) return 0.0;
    // Count upward bid-crossings per traced hour.
    const auto& samples = prices->samples();
    std::size_t crossings = 0;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (samples[i - 1] <= config.bid && samples[i] > config.bid) {
        ++crossings;
      }
    }
    const double hours = prices->duration().hours();
    return hours > 0.0 ? static_cast<double>(crossings) / hours : 0.0;
  }
};

const NoneModel kNoneModel;
const PoissonModel kPoissonModel;
const TemporallyConstrainedModel kTemporalModel;
const PriceCrossingModel kPriceCrossingModel;

/// Non-owning handle to a static builtin (registry factories return
/// shared_ptr so plugins may hand out owned instances).
std::shared_ptr<const RevocationModelPolicy> borrow(
    const RevocationModelPolicy& model) {
  return {std::shared_ptr<const RevocationModelPolicy>{}, &model};
}

}  // namespace

void RevocationSurface::register_builtins(
    policy::PolicyRegistry<RevocationSurface>& registry) {
  registry.add("none", "servers are never revoked",
               [] { return borrow(kNoneModel); });
  registry.add(
      "poisson", "memoryless per-server revocations with configurable MTBR",
      [] { return borrow(kPoissonModel); }, {},
      {{"poisson_rate_per_hour", "revocations per server-hour", 1.0 / 24.0}});
  registry.add(
      "temporal",
      "bathtub lifetimes under a hard cap (Kadupitiya et al., "
      "arXiv:1911.05160)",
      [] { return borrow(kTemporalModel); }, {},
      {{"max_lifetime_hours", "hard lifetime cap T", 24.0},
       {"early_fraction", "infant-mortality mixture weight", 0.2},
       {"early_tau_hours", "early component time constant", 2.0},
       {"late_shape", "late component polynomial exponent", 8.0}});
  registry.add(
      "price", "market-wide revocation while spot price exceeds the bid",
      [] { return borrow(kPriceCrossingModel); }, {"price-crossing"},
      {{"bid", "bid per core-hour", 0.5}});
}

std::shared_ptr<const RevocationModelPolicy> make_revocation_model(
    const std::string& name) {
  const auto* entry = RevocationRegistry::instance().find(name);
  if (entry == nullptr) {
    throw std::invalid_argument(
        "unknown revocation model '" + name + "' (expected " +
        policy::joined_policy_names<RevocationSurface>() + ")");
  }
  return entry->make();
}

RevocationEngine::RevocationEngine(RevocationConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      seed_(seed),
      model_(make_revocation_model(revocation_model_of(config_))) {}

std::vector<RevocationEvent> RevocationEngine::schedule_for(
    std::size_t server, sim::SimTime horizon) const {
  if (horizon.micros() <= 0) return {};
  return model_->schedule_for(config_, seed_, server, horizon, prices_);
}

std::vector<RevocationEvent> RevocationEngine::schedule(
    std::span<const std::size_t> transient_servers, sim::SimTime horizon) const {
  std::vector<RevocationEvent> merged;
  for (const std::size_t server : transient_servers) {
    const auto events = schedule_for(server, horizon);
    merged.insert(merged.end(), events.begin(), events.end());
  }
  std::sort(merged.begin(), merged.end(), schedule_before);
  return merged;
}

double RevocationEngine::expected_rate_per_hour() const noexcept {
  return model_->expected_rate_per_hour(config_, prices_);
}

}  // namespace deflate::transient
