// Server-level revocation engine for transient capacity.
//
// The paper's premise is that servers are *transient*: the provider may
// reclaim them at unilateral notice, and deflation is the graceful answer
// to that reclamation. This engine generates the revocation events. Three
// preemption models are implemented:
//
//   * Poisson — the classic memoryless model: per-server time-to-revocation
//     is exponential with a configurable MTBR (EC2-spot-style analyses
//     commonly assume this).
//   * TemporallyConstrained — Kadupitiya, Jadhao & Sharma, "Modeling The
//     Temporally Constrained Preemptions of Transient Cloud VMs"
//     (arXiv:1911.05160): Google-preemptible-style instances have a hard
//     24 h maximum lifetime, and the preemption hazard is bathtub-shaped —
//     elevated infant mortality in the first hours, a quiet middle, and a
//     steep rise near the lifetime cap where every surviving instance is
//     reclaimed.
//   * PriceCrossing — spot-market semantics: capacity is held while the
//     spot price stays at or below the bid and revoked market-wide when the
//     price crosses above it (Sharma et al., arXiv:1704.08738 §2).
//
// Schedules are keyed per (seed, server id) through util::Rng streams, so
// the schedule of any server is independent of how many other servers
// exist and of the thread count used to generate them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "policy/registry.hpp"
#include "sim/time.hpp"
#include "transient/spot_price.hpp"

namespace deflate::transient {

/// An alias of the revocation registry's builtins: configs resolve it
/// through its primary name.
enum class RevocationModel { None, Poisson, TemporallyConstrained, PriceCrossing };

/// The registry primary name `m` aliases.
[[nodiscard]] const char* revocation_model_name(RevocationModel m) noexcept;

struct RevocationConfig {
  /// An alias, consulted only when `model_name` is empty.
  RevocationModel model = RevocationModel::None;
  /// Registry name of the model; see revocation_model_of. Unknown names
  /// throw std::invalid_argument when the model is built.
  std::string model_name;

  // --- Poisson ---
  /// Mean time between revocations is 1/rate (default: one per 24 h).
  double poisson_rate_per_hour = 1.0 / 24.0;

  // --- TemporallyConstrained (Kadupitiya et al.) ---
  /// Hard lifetime cap T (24 h for Google preemptible VMs).
  double max_lifetime_hours = 24.0;
  /// Fraction of instances hit by the early (infant-mortality) component.
  double early_fraction = 0.2;
  /// Time constant of the early exponential component, hours.
  double early_tau_hours = 2.0;
  /// Polynomial exponent of the late component; larger = more mass
  /// concentrated at the lifetime cap.
  double late_shape = 8.0;

  // --- PriceCrossing ---
  /// Bid per core-hour; capacity is lost while spot price > bid.
  double bid = 0.5;

  /// Time for the provider to hand back equivalent capacity after a
  /// revocation (re-acquisition delay). Applies to all models.
  double recovery_hours = 0.25;

  /// Advance warning the provider gives before taking a server (EC2 gives
  /// 2 min, GCE 30 s): each revocation is announced warning_hours before
  /// it lands, which is the window the timed migration engine
  /// (src/cluster/migration.hpp) has to stream VMs off the server.
  /// 0 = no warning. Applies to all models; ignored by the legacy instant
  /// migration path (migration bandwidth 0).
  double warning_hours = 0.0;
};

/// The revocation model `config` selects: `model_name`, or the primary
/// name `model` aliases when the name is empty. Every consumer resolves
/// the model through this: the engine and the bid optimizer.
[[nodiscard]] std::string revocation_model_of(const RevocationConfig& config);

/// One revocation (or restoration) of one server.
struct RevocationEvent {
  sim::SimTime at;
  std::size_t server = 0;
  bool revoke = true;  ///< false: capacity restored (re-acquired)

  [[nodiscard]] bool operator==(const RevocationEvent&) const = default;
};

/// Canonical merged-schedule ordering: (time, revoke-before-restore,
/// server id). Every sorted schedule in the library uses this ordering.
[[nodiscard]] inline bool schedule_before(const RevocationEvent& a,
                                          const RevocationEvent& b) noexcept {
  if (a.at != b.at) return a.at < b.at;
  if (a.revoke != b.revoke) return a.revoke;
  return a.server < b.server;
}

/// Strategy object behind RevocationModel: generates one server's
/// revoke/restore schedule as a pure function of (config, seed, server).
/// Models are stateless and shared; per-call randomness is derived inside
/// schedule_for from the (seed, server)-keyed stream.
class RevocationModelPolicy {
 public:
  virtual ~RevocationModelPolicy() = default;

  /// Sorted schedule over [0, horizon) for one server. `prices` is the
  /// market's step trace (may be null; the price-crossing model throws
  /// std::logic_error without it).
  [[nodiscard]] virtual std::vector<RevocationEvent> schedule_for(
      const RevocationConfig& config, std::uint64_t seed, std::size_t server,
      sim::SimTime horizon, const PriceTrace* prices) const = 0;

  /// Expected revocations per server-hour (portfolio risk estimate).
  [[nodiscard]] virtual double expected_rate_per_hour(
      const RevocationConfig& config,
      const PriceTrace* prices) const noexcept = 0;
};

/// Intermediate base for acquire/revoke renewal models (Poisson,
/// temporally-constrained): owns the renewal loop — keyed rng stream,
/// recovery clamp, horizon cutoffs — so subclasses only sample lifetimes.
/// Draw order is part of the loop, which is what keeps the golden
/// revocation schedules bit-identical across the refactor.
class RenewalRevocationModel : public RevocationModelPolicy {
 public:
  [[nodiscard]] std::vector<RevocationEvent> schedule_for(
      const RevocationConfig& config, std::uint64_t seed, std::size_t server,
      sim::SimTime horizon, const PriceTrace* prices) const final;

 protected:
  /// Samples the next lifetime (hours from acquisition to revocation)
  /// from the renewal stream.
  [[nodiscard]] virtual double sample_lifetime_hours(
      const RevocationConfig& config, util::Rng& rng) const = 0;
};

/// Registry surface for revocation models.
struct RevocationSurface {
  static constexpr const char* kSurfaceName = "revocation";
  static constexpr const char* kSurfaceDescription =
      "how the transient market revokes (and restores) servers";
  using Factory =
      std::function<std::shared_ptr<const RevocationModelPolicy>()>;
  static void register_builtins(policy::PolicyRegistry<RevocationSurface>&);
};

using RevocationRegistry = policy::PolicyRegistry<RevocationSurface>;

/// Resolves a registered model by name (aliases accepted); throws
/// std::invalid_argument naming the valid choices when unknown.
[[nodiscard]] std::shared_ptr<const RevocationModelPolicy>
make_revocation_model(const std::string& name);

class RevocationEngine {
 public:
  /// Resolves the model through the registry (revocation_model_of);
  /// throws std::invalid_argument on unknown names.
  explicit RevocationEngine(RevocationConfig config, std::uint64_t seed = 42);

  /// Revoke/restore schedule for one server over [0, horizon), sorted by
  /// time. A pure function of (config, seed, server) — bit-identical
  /// regardless of call order or thread count. PriceCrossing requires a
  /// price trace (set_price_trace) and is market-wide, i.e. identical for
  /// every server.
  [[nodiscard]] std::vector<RevocationEvent> schedule_for(
      std::size_t server, sim::SimTime horizon) const;

  /// Merged schedule for a set of transient servers, sorted by
  /// (time, revoke-before-restore, server id).
  [[nodiscard]] std::vector<RevocationEvent> schedule(
      std::span<const std::size_t> transient_servers,
      sim::SimTime horizon) const;

  /// The PriceCrossing model derives its schedule from this trace. The
  /// trace must outlive the engine.
  void set_price_trace(const PriceTrace* trace) noexcept { prices_ = trace; }

  /// Expected revocations per server-hour under the configured model
  /// (used by the portfolio manager's risk estimate).
  [[nodiscard]] double expected_rate_per_hour() const noexcept;

  [[nodiscard]] const RevocationConfig& config() const noexcept {
    return config_;
  }

 private:
  RevocationConfig config_;
  std::uint64_t seed_ = 42;
  const PriceTrace* prices_ = nullptr;
  /// Registry-resolved model implementation.
  std::shared_ptr<const RevocationModelPolicy> model_;
};

}  // namespace deflate::transient
