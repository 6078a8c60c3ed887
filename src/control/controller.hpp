// FleetController: the online control plane's rolling re-optimization
// loop.
//
// Everything economic in the one-shot pipeline is decided at t=0 from
// the planned trace: the portfolio split (transient/portfolio.hpp), the
// market correlation matrix, the per-class bids and admission ceilings
// (transient/bidding.hpp). A mid-run regime shift — markets
// (de)correlating, a revocation storm, a sustained price spike — is
// invisible to that plan. The controller closes the loop: on a
// configurable window (default 6 simulated hours) it
//
//   1. ingests realized history (price samples per market, revocation
//      counts and survival times, held server-hours) into the online
//      estimators of estimators.hpp, blended through the pluggable
//      ForecastPolicy (forecast.hpp, the registry's "control" surface);
//   2. re-runs PortfolioManager::optimize and BidOptimizer against the
//      forecasts, producing fresh target market weights + class
//      ceilings;
//   3. executes the *delta* against the live fleet as rate-limited
//      drains (at most `max_moves_per_window` servers move per window,
//      never an instant repartition), expressed as synthetic
//      warn/revoke/restore events the simulator's existing
//      MigrationEngine machinery executes, while the new ceilings are
//      pushed into the live AdmissionController at the next tick
//      barrier.
//
// Invariants the simulator's golden tests pin:
//   - controller disabled (or reopt window infinite): the event stream,
//     every decision and every metric are bit-identical to the one-shot
//     path;
//   - `static` forecast: re-optimization reproduces the planned weights
//     and ceilings exactly, so zero moves are scheduled and pushed
//     ceilings equal the planned ones;
//   - zero allowed moves: only admission ceilings change.
//
// Re-planning calls the market planner's own rules (transient/market.hpp),
// and the simulator's plan queue and a move's rewritten suffix both come
// from server_timelines + plan_events below.
//
// The controller owns the authoritative per-server revoke/restore
// timeline (seeded from the plan, rewritten on moves) and bills the
// realized fleet segment-aware: a moved server pays its old market's spot
// price until the drain completes and the new market's after it. This
// bill sums per server, TransientMarketEngine::cost_report per market in
// schedule order; one shared walk would reorder the floating-point sums
// and change every run's cost bits, so the two stay separate.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/estimators.hpp"
#include "control/forecast.hpp"
#include "sim/time.hpp"
#include "transient/market.hpp"

namespace deflate::control {

/// Mid-run environment change: from `at_hours` on, prices and
/// revocations follow `after` instead of the config the plan was built
/// from. The t=0 plan (weights, bids, ceilings, schedules before the
/// shift) is untouched — the shift changes the world, not the decisions.
/// `at_hours <= 0` disables. Applied by the simulator whether or not the
/// controller is enabled, so a static t=0 plan and a rolling
/// re-optimized run face the same environment (bench/scenario_reopt).
struct RegimeShiftConfig {
  double at_hours = 0.0;
  transient::MarketEngineConfig after;

  [[nodiscard]] bool active() const noexcept { return at_hours > 0.0; }
  /// When the shift takes effect in a run over [0, horizon):
  /// SimTime::max() when inactive or at/after the horizon.
  [[nodiscard]] sim::SimTime starts_at(sim::SimTime horizon) const noexcept {
    const sim::SimTime at = sim::SimTime::from_hours(at_hours);
    return active() && at < horizon ? at : sim::SimTime::max();
  }
};

/// SimConfig::control — the online control plane's knobs.
struct ControlConfig {
  /// Off (default) keeps the one-shot t=0 path bit-identical.
  bool enabled = false;
  /// Re-optimization window in simulated hours; infinity (or <= 0)
  /// disables the loop even when `enabled` (estimator-only parity mode).
  double reopt_hours = 6.0;
  /// Server moves the delta executor may schedule per window. 0 =
  /// ceilings-only re-optimization.
  std::size_t max_moves_per_window = 4;
  /// Forecast policy name from the "control" registry surface
  /// (static | ewma | windowed, plugin-capable).
  std::string forecast = "ewma";
  /// EWMA gain (the registry's `alpha` param).
  double ewma_alpha = 0.5;
  /// Optional injected environment change (regime shift).
  RegimeShiftConfig regime_shift;

  [[nodiscard]] bool reopt_active() const noexcept {
    return enabled && std::isfinite(reopt_hours) && reopt_hours > 0.0;
  }
};

/// One Restore/Warn/Revoke of a transient server: the simulator's plan
/// queue holds these, and a re-optimization hands back a rewritten
/// suffix of them. Kinds are declared in their canonical order at equal
/// timestamps.
struct PlanEvent {
  enum class Kind { Restore, Warn, Revoke };
  sim::SimTime at;
  Kind kind = Kind::Revoke;
  std::size_t server = 0;
  /// Warn only: when the drain window closes (the revocation instant).
  sim::SimTime deadline;
};

/// One revoke/restore of one server, tagged with the market the server
/// occupies when the event fires (moves switch the tag).
struct TimelineEvent {
  sim::SimTime at;
  bool revoke = true;
  std::size_t market = 0;
  /// Controller-initiated (a move's drain/re-acquire) rather than an
  /// environment revocation: executed and billed like any other event,
  /// but invisible to the estimators — counting our own drains as market
  /// revocations would convince the forecaster an emptied market is
  /// infinitely hostile.
  bool synthetic = false;
  /// A drain's warning window in hours (synthetic revokes only), fixed
  /// when the move is scheduled: the drain is announced that many hours
  /// before its revoke, i.e. the moment it was scheduled.
  double drain_hours = 0.0;
};

/// One transient server's revoke/restore timeline, in time order.
struct ServerTimeline {
  std::size_t server = 0;
  std::size_t initial_market = 0;
  std::vector<TimelineEvent> events;
  /// A scheduled move's re-acquisition instant; the server is not a move
  /// candidate again until then.
  sim::SimTime move_until;
};

/// Every transient server's timeline, ascending by server id, read off
/// the plan's per-market schedules in one pass.
[[nodiscard]] std::vector<ServerTimeline> server_timelines(
    const transient::CapacityPlan& plan);

/// Each market's revocation warning window in hours, in market order.
[[nodiscard]] std::vector<double> warning_hours(
    const std::vector<transient::MarketDef>& defs);

/// The plan events of `timelines` strictly after `after`, sorted by
/// (time, restore < warn < revoke, server). Under timed migration each
/// revoke is announced by a warn as many hours earlier as its market's
/// window: `warning_hours[market]` for a revoke before `shift_at`,
/// `shifted_warning_hours[market]` for one at or after it (a regime
/// shift; SimTime::max() for none). A drain (synthetic revoke) is
/// announced with its own `drain_hours` instead. The warn is clamped to
/// the server's previous event and to t=0; a market a list does not
/// cover gets no warn, and a warn that does not land strictly between
/// `after` and its revoke is left out.
[[nodiscard]] std::vector<PlanEvent> plan_events(
    const std::vector<ServerTimeline>& timelines,
    const std::vector<double>& warning_hours, sim::SimTime after,
    sim::SimTime shift_at, const std::vector<double>& shifted_warning_hours);

/// What one re-optimization produced.
struct ReoptResult {
  /// True when fresh per-class ceilings should be pushed into the live
  /// AdmissionController (at the tick barrier the Reopt event sits on).
  bool ceilings_updated = false;
  std::vector<double> class_ceilings;
  /// Servers scheduled to move this window (<= max_moves_per_window).
  std::size_t moves = 0;
  /// True when the remaining plan-event suffix must be replaced with
  /// `future_events`. Only set when moves were scheduled: a window with
  /// no delta leaves the simulator's queue untouched.
  bool schedule_rewritten = false;
  /// Replacement suffix: every plan event strictly after `now`, sorted
  /// by (time, restore < warn < revoke, server).
  std::vector<PlanEvent> future_events;
};

/// Rewrites the realized environment of an existing plan from
/// `shift.at_hours` on: price-trace suffixes are regenerated from
/// `shift.after` (stitched sample-wise onto the realized prefix) and
/// every transient server's revoke/restore schedule keeps its realized
/// prefix and continues under the new market parameters, with the
/// alternation at the junction repaired. Throws std::invalid_argument
/// when `after` is incompatible (different market count, price step or
/// on-demand rate). No-op when the shift is inactive or at/after the
/// horizon.
void apply_regime_shift(transient::CapacityPlan& plan,
                        const transient::MarketEngineConfig& before,
                        const RegimeShiftConfig& shift, sim::SimTime horizon);

class FleetController {
 public:
  /// `plan` must outlive the controller (the simulator owns both) and
  /// must already be rebound to the realized fleet split and
  /// regime-shifted. `timed_migration` mirrors the simulator: moves
  /// drain through warn windows when true, revoke/restore instantly
  /// when false.
  FleetController(ControlConfig config,
                  const transient::MarketEngineConfig& market,
                  const transient::CapacityPlan& plan, sim::SimTime horizon,
                  bool timed_migration);

  /// Closes the window [last reopt, now), folds its realized history
  /// into the estimators, re-optimizes and returns the delta to execute.
  [[nodiscard]] ReoptResult reoptimize(sim::SimTime now);

  [[nodiscard]] std::uint64_t reopts() const noexcept { return reopts_; }
  [[nodiscard]] std::uint64_t total_moves() const noexcept {
    return total_moves_;
  }

  /// Bills the realized (possibly moved) fleet over [0, horizon) —
  /// TransientMarketEngine::cost_report's algorithm, segment-aware. The
  /// simulator substitutes this report for the engine's only when moves
  /// actually happened, keeping zero-move runs bit-identical.
  [[nodiscard]] transient::CostReport cost_report(double cores_per_server,
                                                  sim::SimTime horizon) const;

 private:
  /// Snapshot of one server at a re-optimization instant.
  struct ServerStatus {
    bool held = false;
    std::size_t market = 0;
    sim::SimTime prev_event;
    bool has_next_revoke = false;
    sim::SimTime next_revoke;
    std::size_t next_revoke_market = 0;
  };
  /// Realized history of one market over one window.
  struct WindowStats {
    std::size_t revocations = 0;
    double held_hours = 0.0;
    double uptime_hours_sum = 0.0;
    std::size_t uptime_count = 0;
  };

  [[nodiscard]] ServerStatus walk_timeline(const ServerTimeline& timeline,
                                           sim::SimTime from, sim::SimTime now,
                                           std::vector<WindowStats>* stats)
      const;
  [[nodiscard]] std::vector<double> window_samples(std::size_t market,
                                                   sim::SimTime from,
                                                   sim::SimTime now) const;
  /// Market definitions in force at `at` (before vs after the shift),
  /// with the plan's optimized bids applied.
  [[nodiscard]] const std::vector<transient::MarketDef>& defs_at(
      sim::SimTime at) const;
  /// Realized revoke/restore suffix for `server` riding `market` from
  /// `from` on (strictly-after events, alternation-repaired from a held
  /// start), spanning the regime shift when one is configured.
  [[nodiscard]] std::vector<TimelineEvent> environment_schedule(
      std::size_t market, std::size_t server, sim::SimTime from) const;
  /// Schedules one drain+reacquire move of a held server out of
  /// `status.market`; false when the drain would not complete before the
  /// horizon or before the market's own next revocation.
  bool schedule_move(ServerTimeline& timeline, const ServerStatus& status,
                     std::size_t to_market, sim::SimTime now);

  ControlConfig config_;
  transient::MarketEngineConfig market_;
  const transient::CapacityPlan* plan_;
  sim::SimTime horizon_;
  bool timed_;
  sim::SimTime shift_at_;

  std::shared_ptr<const ForecastPolicy> policy_;
  std::vector<transient::MarketDef> defs_before_;
  std::vector<transient::MarketDef> defs_after_;
  /// Per-market warning windows for warn synthesis before and after the
  /// shift; empty unless timed.
  std::vector<double> warning_hours_;
  std::vector<double> shifted_warning_hours_;

  RevocationForecaster forecaster_;
  CorrelationEstimator correlation_;
  /// Blended per-market price forecasts (seeded from the planned specs).
  std::vector<double> price_mean_;
  std::vector<double> price_variance_;
  /// Blended per-class admission ceilings (seeded from the plan).
  std::vector<double> ceilings_;

  std::vector<ServerTimeline> timelines_;
  sim::SimTime window_from_;
  std::uint64_t reopts_ = 0;
  std::uint64_t total_moves_ = 0;
};

}  // namespace deflate::control
