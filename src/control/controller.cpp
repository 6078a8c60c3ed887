#include "control/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "transient/bidding.hpp"
#include "transient/portfolio.hpp"
#include "transient/revocation.hpp"
#include "transient/spot_price.hpp"

namespace deflate::control {
std::vector<ServerTimeline> server_timelines(
    const transient::CapacityPlan& plan) {
  std::vector<ServerTimeline> timelines;
  timelines.reserve(plan.transient_servers.size());
  for (std::size_t m = 0; m < plan.markets.size(); ++m) {
    for (const std::size_t server : plan.markets[m].servers) {
      timelines.push_back({server, m, {}, {}});
    }
  }
  std::sort(timelines.begin(), timelines.end(),
            [](const ServerTimeline& a, const ServerTimeline& b) {
              return a.server < b.server;
            });
  for (std::size_t m = 0; m < plan.markets.size(); ++m) {
    for (const transient::RevocationEvent& event :
         plan.markets[m].revocations) {
      const auto it = std::lower_bound(
          timelines.begin(), timelines.end(), event.server,
          [](const ServerTimeline& t, std::size_t server) {
            return t.server < server;
          });
      if (it != timelines.end() && it->server == event.server &&
          it->initial_market == m) {
        it->events.push_back({event.at, event.revoke, m});
      }
    }
  }
  return timelines;
}

std::vector<double> warning_hours(
    const std::vector<transient::MarketDef>& defs) {
  std::vector<double> hours;
  hours.reserve(defs.size());
  for (const transient::MarketDef& def : defs) {
    hours.push_back(def.revocation.warning_hours);
  }
  return hours;
}

std::vector<PlanEvent> plan_events(
    const std::vector<ServerTimeline>& timelines,
    const std::vector<double>& warning_hours, sim::SimTime after,
    sim::SimTime shift_at, const std::vector<double>& shifted_warning_hours) {
  std::vector<PlanEvent> out;
  for (const ServerTimeline& timeline : timelines) {
    sim::SimTime prev;
    for (const TimelineEvent& event : timeline.events) {
      if (event.at > after) {
        out.push_back({event.at,
                       event.revoke ? PlanEvent::Kind::Revoke
                                    : PlanEvent::Kind::Restore,
                       timeline.server,
                       {}});
      }
      const std::vector<double>& windows =
          event.at < shift_at ? warning_hours : shifted_warning_hours;
      double warn_hours = 0.0;
      if (event.revoke) {
        warn_hours = event.synthetic ? event.drain_hours
                     : event.market < windows.size() ? windows[event.market]
                                                     : 0.0;
      }
      if (warn_hours > 0.0) {
        // A server the provider has not yet handed back cannot be
        // announced as doomed: the warn never precedes its previous event.
        const sim::SimTime warn_at =
            std::max(event.at - sim::SimTime::from_hours(warn_hours), prev);
        if (warn_at > after && warn_at < event.at) {
          out.push_back(
              {warn_at, PlanEvent::Kind::Warn, timeline.server, event.at});
        }
      }
      prev = event.at;
    }
  }
  std::sort(out.begin(), out.end(), [](const PlanEvent& a, const PlanEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.server < b.server;
  });
  return out;
}

void apply_regime_shift(transient::CapacityPlan& plan,
                        const transient::MarketEngineConfig& before,
                        const RegimeShiftConfig& shift, sim::SimTime horizon) {
  const sim::SimTime at = shift.starts_at(horizon);
  if (at == sim::SimTime::max() || plan.markets.empty()) return;

  std::vector<transient::MarketDef> defs_after =
      shift.after.effective_markets();
  const std::vector<transient::MarketDef> defs_before =
      before.effective_markets();
  if (defs_after.size() != plan.markets.size()) {
    throw std::invalid_argument(
        "regime shift: the market count must not change mid-run");
  }
  for (std::size_t m = 0; m < defs_after.size(); ++m) {
    if (defs_after[m].price.step != plan.markets[m].prices.step()) {
      throw std::invalid_argument(
          "regime shift: the price sampling step must not change mid-run");
    }
  }
  if (defs_after.front().price.on_demand_price !=
      defs_before.front().price.on_demand_price) {
    throw std::invalid_argument(
        "regime shift: the on-demand rate must not change mid-run");
  }

  // Price traces: realized prefix, new-regime suffix (sample-wise stitch
  // on the shared step grid).
  const std::vector<transient::PriceTrace> post =
      transient::market_price_traces(shift.after, horizon);

  for (std::size_t m = 0; m < plan.markets.size(); ++m) {
    const sim::SimTime step = plan.markets[m].prices.step();
    std::vector<double> samples = plan.markets[m].prices.samples();
    const std::vector<double>& post_samples = post[m].samples();
    const std::size_t cut =
        static_cast<std::size_t>(at.micros() / step.micros());
    for (std::size_t i = cut; i < samples.size() && i < post_samples.size();
         ++i) {
      samples[i] = post_samples[i];
    }
    plan.markets[m].prices = transient::PriceTrace(step, std::move(samples));
  }

  // Revocation schedules: keep every realized event before the shift,
  // continue each server under the new regime's keyed stream from the
  // shift on, and repair the held/down alternation at the junction. The
  // realized prefixes come grouped by server in one pass.
  const std::vector<ServerTimeline> realized = server_timelines(plan);
  transient::apply_optimized_bids(defs_after, plan.optimized_bids);
  plan.revocations.clear();
  for (std::size_t m = 0; m < plan.markets.size(); ++m) {
    transient::MarketPlan& market = plan.markets[m];
    transient::RevocationEngine engine(
        defs_after[m].revocation, transient::market_seed(shift.after.seed, m));
    engine.set_price_trace(&market.prices);
    std::vector<transient::RevocationEvent> rebuilt;
    rebuilt.reserve(market.revocations.size());
    for (const ServerTimeline& timeline : realized) {
      if (timeline.initial_market != m) continue;
      std::vector<transient::RevocationEvent> events;
      for (const TimelineEvent& event : timeline.events) {
        if (event.at < at) {
          events.push_back({event.at, timeline.server, event.revoke});
        }
      }
      for (const transient::RevocationEvent& event :
           engine.schedule_for(timeline.server, horizon)) {
        if (event.at >= at) events.push_back(event);
      }
      const std::vector<transient::RevocationEvent> kept =
          transient::state_changes(events);
      rebuilt.insert(rebuilt.end(), kept.begin(), kept.end());
    }
    std::sort(rebuilt.begin(), rebuilt.end(), transient::schedule_before);
    market.revocations = std::move(rebuilt);
    plan.revocations.insert(plan.revocations.end(), market.revocations.begin(),
                            market.revocations.end());
  }
  std::sort(plan.revocations.begin(), plan.revocations.end(),
            transient::schedule_before);
}

FleetController::FleetController(ControlConfig config,
                                 const transient::MarketEngineConfig& market,
                                 const transient::CapacityPlan& plan,
                                 sim::SimTime horizon, bool timed_migration)
    : config_(std::move(config)),
      market_(market),
      plan_(&plan),
      horizon_(horizon),
      timed_(timed_migration),
      shift_at_(config_.regime_shift.starts_at(horizon)),
      policy_(make_forecast_policy(config_.forecast)),
      defs_before_(market_.effective_markets()),
      defs_after_(config_.regime_shift.active()
                      ? config_.regime_shift.after.effective_markets()
                      : std::vector<transient::MarketDef>{}),
      forecaster_(policy_, config_.ewma_alpha, {}, {}),
      correlation_(policy_, config_.ewma_alpha, plan.markets.size(),
                   plan.planned_correlation) {
  transient::apply_optimized_bids(defs_before_, plan.optimized_bids);
  transient::apply_optimized_bids(defs_after_, plan.optimized_bids);
  if (timed_) {
    warning_hours_ = warning_hours(defs_before_);
    shifted_warning_hours_ = warning_hours(defs_after_);
  }

  const std::size_t k = plan.markets.size();
  std::vector<double> planned_rates(k, 0.0);
  std::vector<double> planned_uptimes(k, 0.0);
  price_mean_.resize(k, 0.0);
  price_variance_.resize(k, 0.0);
  for (std::size_t m = 0; m < k; ++m) {
    const transient::MarketSpec& spec = plan.markets[m].spec;
    planned_rates[m] = spec.revocation_rate_per_hour;
    planned_uptimes[m] = spec.revocation_rate_per_hour > 0.0
                             ? 1.0 / spec.revocation_rate_per_hour
                             : 0.0;
    price_mean_[m] = spec.expected_price;
    price_variance_[m] = spec.price_variance;
  }
  forecaster_ = RevocationForecaster(policy_, config_.ewma_alpha,
                                     std::move(planned_rates),
                                     std::move(planned_uptimes));
  ceilings_ = plan.class_ceilings;

  timelines_ = server_timelines(plan);
}

FleetController::ServerStatus FleetController::walk_timeline(
    const ServerTimeline& timeline, sim::SimTime from, sim::SimTime now,
    std::vector<WindowStats>* stats) const {
  bool held = true;
  sim::SimTime held_from;
  std::size_t market = timeline.initial_market;
  ServerStatus status;
  const auto credit_held = [&](sim::SimTime a, sim::SimTime b) {
    if (stats == nullptr) return;
    const sim::SimTime lo = std::max(a, from);
    const sim::SimTime hi = std::min(b, now);
    if (hi > lo) (*stats)[market].held_hours += (hi - lo).hours();
  };
  for (std::size_t e = 0; e < timeline.events.size(); ++e) {
    const TimelineEvent& event = timeline.events[e];
    if (event.at > now) {
      if (event.revoke) {
        status.has_next_revoke = true;
        status.next_revoke = event.at;
        status.next_revoke_market = event.market;
      }
      break;
    }
    if (event.revoke && held) {
      credit_held(held_from, event.at);
      if (stats != nullptr && event.at > from && !event.synthetic) {
        ++(*stats)[market].revocations;
        (*stats)[market].uptime_hours_sum += (event.at - held_from).hours();
        ++(*stats)[market].uptime_count;
      }
      held = false;
    } else if (!event.revoke && !held) {
      held = true;
      held_from = event.at;
      market = event.market;
    }
    status.prev_event = event.at;
  }
  if (held) credit_held(held_from, now);
  status.held = held;
  status.market = market;
  return status;
}

std::vector<double> FleetController::window_samples(std::size_t market,
                                                    sim::SimTime from,
                                                    sim::SimTime now) const {
  const transient::PriceTrace& trace = plan_->markets[market].prices;
  if (trace.empty() || trace.step().micros() <= 0) return {};
  const auto step = trace.step().micros();
  const std::size_t begin = static_cast<std::size_t>(from.micros() / step);
  const std::size_t end = std::min(
      trace.samples().size(), static_cast<std::size_t>(now.micros() / step));
  if (begin >= end) return {};
  return {trace.samples().begin() + static_cast<std::ptrdiff_t>(begin),
          trace.samples().begin() + static_cast<std::ptrdiff_t>(end)};
}

const std::vector<transient::MarketDef>& FleetController::defs_at(
    sim::SimTime at) const {
  return (at >= shift_at_ && !defs_after_.empty()) ? defs_after_
                                                   : defs_before_;
}

std::vector<TimelineEvent>
FleetController::environment_schedule(std::size_t market, std::size_t server,
                                      sim::SimTime from) const {
  std::vector<transient::RevocationEvent> raw;
  const auto collect = [&](const std::vector<transient::MarketDef>& defs,
                           std::uint64_t seed, sim::SimTime lo,
                           sim::SimTime hi, bool include_lo) {
    transient::RevocationEngine engine(
        defs[market].revocation, transient::market_seed(seed, market));
    engine.set_price_trace(&plan_->markets[market].prices);
    for (const transient::RevocationEvent& event :
         engine.schedule_for(server, horizon_)) {
      const bool above = include_lo ? event.at >= lo : event.at > lo;
      if (above && event.at < hi) raw.push_back(event);
    }
  };
  // (from, shift) under the planned regime, then [shift, horizon) — or
  // (from, horizon) once the shift has passed — under the new one.
  if (from < shift_at_) {
    collect(defs_before_, market_.seed, from, std::min(shift_at_, horizon_),
            false);
  }
  if (shift_at_ < horizon_) {
    collect(defs_after_, config_.regime_shift.after.seed,
            std::max(from, shift_at_), horizon_, from < shift_at_);
  }
  // The server re-enters the market held; repair the alternation at the
  // junction (and across the shift).
  std::vector<TimelineEvent> out;
  for (const transient::RevocationEvent& event :
       transient::state_changes(raw)) {
    out.push_back({event.at, event.revoke, market});
  }
  return out;
}

bool FleetController::schedule_move(ServerTimeline& timeline,
                                    const ServerStatus& status,
                                    std::size_t to_market, sim::SimTime now) {
  const std::size_t from_market = status.market;
  const sim::SimTime eps = sim::SimTime::from_micros(1);
  double warn_hours =
      timed_ ? defs_at(now)[from_market].revocation.warning_hours : 0.0;
  if (timed_ && now < shift_at_ && shift_at_ < horizon_) {
    // A drain that would land at or after the shift with the post-shift
    // window gets that window, as an environment revoke there would.
    // Otherwise (the window shrinks across the shift) it keeps the one in
    // force now, even if its revoke then lands after the shift.
    const double shifted = defs_after_[from_market].revocation.warning_hours;
    if (now + eps + sim::SimTime::from_hours(shifted) >= shift_at_) {
      warn_hours = shifted;
    }
  }
  sim::SimTime revoke_at = now + eps;
  if (warn_hours > 0.0) revoke_at += sim::SimTime::from_hours(warn_hours);
  const sim::SimTime restore_at = revoke_at + eps;
  // A server the market itself will revoke before the drain could
  // complete cannot be moved (this also skips drains already in their
  // warning window).
  if (restore_at >= horizon_ ||
      (status.has_next_revoke && status.next_revoke <= restore_at)) {
    return false;
  }

  while (!timeline.events.empty() && timeline.events.back().at > now) {
    timeline.events.pop_back();
  }
  timeline.events.push_back(
      {revoke_at, true, from_market, /*synthetic=*/true, warn_hours});
  timeline.events.push_back(
      {restore_at, false, to_market, /*synthetic=*/true});
  std::vector<TimelineEvent> suffix =
      environment_schedule(to_market, timeline.server, restore_at);
  timeline.events.insert(timeline.events.end(), suffix.begin(), suffix.end());
  timeline.move_until = restore_at;
  return true;
}

ReoptResult FleetController::reoptimize(sim::SimTime now) {
  ++reopts_;
  const sim::SimTime from = window_from_;
  const std::size_t k = plan_->markets.size();
  ReoptResult out;

  // 1. Fold the closed window's realized history into the estimators.
  std::vector<WindowStats> stats(k);
  std::vector<ServerStatus> status(timelines_.size());
  for (std::size_t i = 0; i < timelines_.size(); ++i) {
    status[i] = walk_timeline(timelines_[i], from, now, &stats);
  }
  std::vector<std::vector<double>> samples(k);
  for (std::size_t m = 0; m < k; ++m) {
    samples[m] = window_samples(m, from, now);
    forecaster_.observe_window(m, stats[m].revocations, stats[m].held_hours,
                               stats[m].uptime_hours_sum,
                               stats[m].uptime_count);
    std::optional<double> realized_mean;
    std::optional<double> realized_variance;
    if (const auto mv = window_mean_variance(samples[m])) {
      realized_mean = mv->first;
      realized_variance = mv->second;
    }
    const transient::MarketSpec& planned = plan_->markets[m].spec;
    price_mean_[m] = policy_->update(planned.expected_price, price_mean_[m],
                                     realized_mean, config_.ewma_alpha);
    price_variance_[m] =
        policy_->update(planned.price_variance, price_variance_[m],
                        realized_variance, config_.ewma_alpha);
  }
  correlation_.observe_window(samples);

  // 2. Re-run the portfolio against the forecasts. The on-demand /
  // transient split is fixed for the run (on-demand servers are sunk
  // capacity); re-optimization redistributes the transient fleet across
  // the markets by the fresh relative weights.
  std::vector<transient::MarketSpec> specs(k);
  for (std::size_t m = 0; m < k; ++m) {
    specs[m] = plan_->markets[m].spec;
    specs[m].expected_price = price_mean_[m];
    specs[m].price_variance = price_variance_[m];
    specs[m].revocation_rate_per_hour = forecaster_.rate_per_hour(m);
  }
  std::vector<double> target_weights(k, 0.0);
  for (std::size_t m = 0; m < k; ++m) {
    target_weights[m] = plan_->markets[m].weight;
  }
  if (market_.use_portfolio) {
    const transient::PortfolioManager manager(market_.portfolio);
    // The correlation estimator is seeded with the plan's matrix, so a
    // `static` forecast reproduces the planned weights bit-exactly.
    const transient::PortfolioResult result =
        manager.optimize(specs, correlation_.forecast());
    target_weights.assign(result.weights.begin() + 1, result.weights.end());
  }

  // 3. Fresh per-class admission ceilings from the window's realized
  // prices (pushed at the Reopt tick barrier; identical values under a
  // degenerate window or the `static` policy).
  if (market_.optimize_bids && !ceilings_.empty()) {
    std::vector<std::optional<double>> realized(ceilings_.size());
    bool window_ok = true;
    for (std::size_t m = 0; m < k; ++m) {
      if (samples[m].size() < 2) window_ok = false;
    }
    if (window_ok) {
      transient::BidOptimizerConfig bidding = market_.bidding;
      bidding.on_demand_price = defs_at(now).front().price.on_demand_price;
      const transient::BidOptimizer optimizer(bidding);
      std::vector<std::vector<transient::ClassBid>> bids(k);
      for (std::size_t m = 0; m < k; ++m) {
        bids[m] = optimizer.optimize_classes(
            transient::PriceTrace(plan_->markets[m].prices.step(), samples[m]),
            defs_at(now)[m].revocation);
      }
      const std::vector<double> blended =
          transient::blend_class_bids(bids, target_weights);
      for (std::size_t c = 0; c < blended.size() && c < realized.size(); ++c) {
        realized[c] = blended[c];
      }
    }
    for (std::size_t c = 0; c < ceilings_.size(); ++c) {
      ceilings_[c] = policy_->update(plan_->class_ceilings[c], ceilings_[c],
                                     realized[c], config_.ewma_alpha);
    }
    out.ceilings_updated = true;
    out.class_ceilings = ceilings_;
  }

  // 4. Delta execution: rate-limited drains toward the fresh partition,
  // never an instant repartition.
  if (market_.use_portfolio && config_.max_moves_per_window > 0 && k > 1 &&
      !timelines_.empty()) {
    std::vector<long long> delta(k, 0);
    for (const ServerStatus& s : status) ++delta[s.market];
    const std::vector<std::size_t> target =
        transient::split_counts(timelines_.size(), target_weights);
    for (std::size_t m = 0; m < k; ++m) {
      delta[m] -= static_cast<long long>(target[m]);
    }
    std::size_t budget = config_.max_moves_per_window;
    std::size_t moved = 0;
    for (std::size_t i = 0; i < timelines_.size() && budget > 0; ++i) {
      const ServerStatus& s = status[i];
      if (!s.held || delta[s.market] <= 0) continue;
      if (timelines_[i].move_until > now) continue;
      std::size_t dst = k;
      for (std::size_t m = 0; m < k; ++m) {
        if (delta[m] < 0) {
          dst = m;
          break;
        }
      }
      if (dst == k) break;
      if (!schedule_move(timelines_[i], s, dst, now)) continue;
      --delta[s.market];
      ++delta[dst];
      --budget;
      ++moved;
    }
    if (moved > 0) {
      total_moves_ += moved;
      out.moves = moved;
      out.schedule_rewritten = true;
      out.future_events = plan_events(timelines_, warning_hours_, now,
                                      shift_at_, shifted_warning_hours_);
    }
  }

  window_from_ = now;
  return out;
}

transient::CostReport FleetController::cost_report(double cores_per_server,
                                                   sim::SimTime horizon) const {
  transient::CostReport report;
  const double hours = horizon.hours();
  if (hours <= 0.0 || cores_per_server <= 0.0) return report;
  const double on_demand_rate = defs_before_.front().price.on_demand_price;
  const std::size_t fleet =
      plan_->on_demand_servers + plan_->transient_servers.size();

  report.on_demand_core_hours =
      static_cast<double>(plan_->on_demand_servers) * cores_per_server * hours;
  report.on_demand_cost = report.on_demand_core_hours * on_demand_rate;
  report.all_on_demand_cost =
      static_cast<double>(fleet) * cores_per_server * hours * on_demand_rate;

  const std::size_t k = plan_->markets.size();
  report.per_market.resize(k);
  for (std::size_t m = 0; m < k; ++m) {
    report.per_market[m].name = plan_->markets[m].name;
  }
  // Held-interval billing, segment-aware: each held span is billed at
  // the spot price of the market the server occupied during that span.
  // Timelines iterate in ascending server order, so the summation order
  // — and the report — is deterministic.
  for (const ServerTimeline& timeline : timelines_) {
    bool held = true;
    sim::SimTime held_from;
    std::size_t market = timeline.initial_market;
    const auto bill = [&](sim::SimTime until) {
      transient::CostReport::MarketCost& entry = report.per_market[market];
      entry.cost += plan_->markets[market].prices.integral_over(held_from,
                                                                until) *
                    cores_per_server;
      entry.core_hours += (until - held_from).hours() * cores_per_server;
    };
    for (const TimelineEvent& event : timeline.events) {
      if (event.revoke && held) {
        bill(event.at);
        held = false;
      } else if (!event.revoke && !held) {
        held = true;
        held_from = event.at;
        market = event.market;
      }
    }
    if (held) bill(horizon);
    ++report.per_market[market].servers;
  }
  for (const transient::CostReport::MarketCost& entry : report.per_market) {
    report.transient_cost += entry.cost;
    report.transient_core_hours += entry.core_hours;
  }
  return report;
}

}  // namespace deflate::control
