#include "cluster/admission.hpp"

#include <algorithm>
#include <stdexcept>

namespace deflate::cluster {

namespace {

/// Deferral-queue ordering as a heap comparator: true when `a` pops
/// after `b`. Pops go in (retry_at, arrival, vm id, enqueue sequence)
/// order — due-first, older requests ahead of newer ones at the same
/// instant, and first-queued first among equal keys.
struct PendingAfter {
  template <typename Pending>
  bool operator()(const Pending& a, const Pending& b) const noexcept {
    if (a.retry_at != b.retry_at) return a.retry_at > b.retry_at;
    if (a.request.arrival != b.request.arrival) {
      return a.request.arrival > b.request.arrival;
    }
    if (a.request.spec.id != b.request.spec.id) {
      return a.request.spec.id > b.request.spec.id;
    }
    return a.sequence > b.sequence;
  }
};

}  // namespace

const char* admission_policy_name(AdmissionPolicyKind p) noexcept {
  switch (p) {
    case AdmissionPolicyKind::AdmitAll: return "admit-all";
    case AdmissionPolicyKind::PriceThreshold: return "price";
    case AdmissionPolicyKind::BidOptimized: return "bid-opt";
  }
  return "?";
}

AdmissionRequest AdmissionRequest::from_spec(const hv::VmSpec& spec,
                                            sim::SimTime arrival) {
  AdmissionRequest request;
  request.spec = spec;
  request.priority_class =
      pool_for_priority(spec.deflatable, spec.priority, kAdmissionClasses);
  request.arrival = arrival;
  return request;
}

// --- PriceFeed --------------------------------------------------------------

PriceFeed::PriceFeed(std::vector<const transient::PriceTrace*> traces,
                     double on_demand_price)
    : on_demand_price_(on_demand_price) {
  for (const transient::PriceTrace* trace : traces) {
    if (trace != nullptr && !trace->empty()) traces_.push_back(trace);
  }
}

sim::SimTime PriceFeed::step() const noexcept {
  if (traces_.empty()) return sim::SimTime{};
  sim::SimTime step = traces_.front()->step();
  for (const transient::PriceTrace* trace : traces_) {
    step = std::min(step, trace->step());
  }
  return step;
}

double PriceFeed::quote(sim::SimTime now) const noexcept {
  if (traces_.empty()) return on_demand_price_;
  double best = traces_.front()->at(now);
  for (std::size_t i = 1; i < traces_.size(); ++i) {
    best = std::min(best, traces_[i]->at(now));
  }
  return best;
}

std::optional<sim::SimTime> PriceFeed::next_at_or_below(
    double ceiling, sim::SimTime from, sim::SimTime until) const {
  if (traces_.empty() || until <= from) return std::nullopt;
  // All traces share one sampling grid in practice; step() is the finest,
  // which stays exact when they do not.
  const sim::SimTime step = this->step();
  if (step.micros() <= 0) return std::nullopt;
  // First step boundary strictly after `from`.
  const std::int64_t k = from.micros() / step.micros() + 1;
  for (sim::SimTime t = sim::SimTime::from_micros(k * step.micros());
       t <= until; t += step) {
    if (quote(t) <= ceiling) return t;
  }
  return std::nullopt;
}

// --- AdmissionController ----------------------------------------------------

AdmissionController::AdmissionController(AdmissionConfig config,
                                         ClusterManagerBase& manager,
                                         PriceFeed feed)
    : manager_(manager), feed_(std::move(feed)), config_(std::move(config)) {}

double AdmissionController::ceiling_for(
    std::size_t priority_class) const noexcept {
  if (priority_class < config_.class_ceilings.size()) {
    return config_.class_ceilings[priority_class];
  }
  return config_.default_ceiling;
}

sim::SimTime AdmissionController::deadline_of(
    const AdmissionRequest& request) const noexcept {
  if (request.deadline) return *request.deadline;
  return request.arrival +
         sim::SimTime::from_hours(std::max(0.0, config_.max_defer_hours));
}

AdmissionDecision AdmissionController::place(const AdmissionRequest& request,
                                             sim::SimTime now) {
  const PlacementResult placed = manager_.place_vm(request.spec);
  AdmissionDecision decision;
  decision.quoted_price = feed_.quote(now);
  decision.placement = placed;
  switch (placed.status) {
    case PlacementResult::Status::Placed:
      decision.status = AdmissionDecision::Status::Placed;
      decision.reason = AdmissionDecision::Reason::Admitted;
      break;
    case PlacementResult::Status::PlacedDeflated:
      decision.status = AdmissionDecision::Status::PlacedDeflated;
      decision.reason = AdmissionDecision::Reason::Admitted;
      break;
    case PlacementResult::Status::Rejected:
      decision.status = AdmissionDecision::Status::Rejected;
      decision.reason = AdmissionDecision::Reason::CapacityRejected;
      break;
  }
  return decision;
}

AdmissionDecision AdmissionController::place_or_requeue(
    const AdmissionRequest& request, sim::SimTime now) {
  const ClusterStats before = manager_.stats();
  AdmissionDecision decision = place(request, now);
  const sim::SimTime deadline = deadline_of(request);
  const sim::SimTime step = feed_.step();
  if (decision.status != AdmissionDecision::Status::Rejected ||
      now >= deadline || step.micros() <= 0) {
    return decision;
  }
  // The failed attempt charged the manager a rejection (and possibly
  // reclamation counters); the protocol is retrying, so book the charges
  // as noise.
  const ClusterStats after = manager_.stats();
  spurious_rejections_ += after.rejections - before.rejections;
  spurious_reclamation_attempts_ +=
      after.reclamation_attempts - before.reclamation_attempts;
  spurious_reclamation_failures_ +=
      after.reclamation_failures - before.reclamation_failures;
  decision.status = AdmissionDecision::Status::Deferred;
  decision.reason = AdmissionDecision::Reason::CapacityDeferred;
  decision.retry_at = std::min(now + step, deadline);
  return decision;
}

AdmissionDecision AdmissionController::evaluate(const AdmissionRequest& request,
                                                sim::SimTime now) {
  return place(request, now);
}

bool AdmissionController::count_resolved(
    const AdmissionDecision& decision) noexcept {
  switch (decision.status) {
    case AdmissionDecision::Status::Placed:
    case AdmissionDecision::Status::PlacedDeflated:
      ++stats_.admitted;
      return true;
    case AdmissionDecision::Status::Rejected:
      if (decision.reason == AdmissionDecision::Reason::DeadlineExpired) {
        ++stats_.expired;
      } else {
        ++stats_.rejected;
      }
      return true;
    case AdmissionDecision::Status::Deferred:
      return false;
  }
  return false;
}

void AdmissionController::enqueue(const AdmissionRequest& request,
                                  sim::SimTime retry_at) {
  queue_.push_back({request, retry_at, next_sequence_++});
  std::push_heap(queue_.begin(), queue_.end(), PendingAfter{});
}

AdmissionDecision AdmissionController::decide(const AdmissionRequest& request,
                                              sim::SimTime now) {
  ++stats_.requests;
  AdmissionDecision decision = evaluate(request, now);
  if (!count_resolved(decision)) {
    ++stats_.deferrals;
    enqueue(request, decision.retry_at);
  }
  return decision;
}

std::optional<sim::SimTime> AdmissionController::next_retry() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.front().retry_at;  // the heap's top
}

std::vector<AdmissionController::Resolved> AdmissionController::drain(
    sim::SimTime now) {
  std::vector<Resolved> resolved;
  while (!queue_.empty() && queue_.front().retry_at <= now) {
    std::pop_heap(queue_.begin(), queue_.end(), PendingAfter{});
    const Pending pending = std::move(queue_.back());
    queue_.pop_back();
    AdmissionDecision decision = evaluate(pending.request, now);
    if (count_resolved(decision)) {
      resolved.push_back({pending.request, decision});
      continue;
    }
    // Queue invariant: a re-deferral must move strictly forward, or drain
    // would spin on the same entry.
    ++stats_.retries;
    enqueue(pending.request,
            std::max(decision.retry_at, now + sim::SimTime::from_micros(1)));
  }
  return resolved;
}

ClusterStats AdmissionController::cluster_stats() const {
  ClusterStats stats = manager_.stats();
  stats.admission_deferrals = stats_.deferrals;
  stats.admission_expired = stats_.expired;
  stats.rejections += stats_.expired;
  stats.rejections -= spurious_rejections_;
  stats.reclamation_attempts -= spurious_reclamation_attempts_;
  stats.reclamation_failures -= spurious_reclamation_failures_;
  return stats;
}

// --- PriceThresholdAdmission ------------------------------------------------

AdmissionDecision PriceThresholdAdmission::evaluate(
    const AdmissionRequest& request, sim::SimTime now) {
  // Class 0 (on-demand) is never price-gated, and with no market feed
  // there is nothing to wait out: admit immediately.
  if (request.priority_class == 0 || !request.spec.deflatable ||
      feed_.empty()) {
    return place(request, now);
  }
  const double ceiling = ceiling_for(request.priority_class);
  const double quote = feed_.quote(now);
  if (quote <= ceiling) return place_or_requeue(request, now);

  const sim::SimTime deadline = deadline_of(request);
  if (now >= deadline) {
    AdmissionDecision decision;
    decision.status = AdmissionDecision::Status::Rejected;
    decision.reason = AdmissionDecision::Reason::DeadlineExpired;
    decision.quoted_price = quote;
    return decision;
  }
  const std::optional<sim::SimTime> next =
      feed_.next_at_or_below(ceiling, now, deadline);
  if (!next) {
    // The quote stays above the ceiling for the request's whole remaining
    // window, so waiting guarantees it never starts. When the window is
    // cut short by the VM's own lifetime, serving its head now beats
    // serving nothing — admit. When an operator deadline is the binding
    // constraint, honor it: the request waits it out and expires.
    const sim::SimTime full_window =
        request.arrival +
        sim::SimTime::from_hours(std::max(0.0, config().max_defer_hours));
    if (deadline < full_window) return place_or_requeue(request, now);
    AdmissionDecision decision;
    decision.status = AdmissionDecision::Status::Deferred;
    decision.reason = AdmissionDecision::Reason::PriceDeferred;
    decision.quoted_price = quote;
    decision.retry_at = deadline;
    return decision;
  }
  AdmissionDecision decision;
  decision.status = AdmissionDecision::Status::Deferred;
  decision.reason = AdmissionDecision::Reason::PriceDeferred;
  decision.quoted_price = quote;
  decision.retry_at = *next;  // the next affordable price step
  return decision;
}

// --- registry surface -------------------------------------------------------

namespace {

/// Builtin factory: builds `Controller` with the entry's kind on its
/// config, whatever kind the caller's config carried.
template <typename Controller>
AdmissionSurface::Factory builtin(AdmissionPolicyKind kind) {
  return [kind](const AdmissionConfig& config, ClusterManagerBase& manager,
                PriceFeed feed) -> std::unique_ptr<AdmissionController> {
    AdmissionConfig selected = config;
    selected.policy = kind;
    return std::make_unique<Controller>(std::move(selected), manager,
                                        std::move(feed));
  };
}

}  // namespace

void AdmissionSurface::register_builtins(
    policy::PolicyRegistry<AdmissionSurface>& registry) {
  registry.add("admit-all", "legacy contract: every request placed on arrival",
               builtin<AdmitAllAdmission>(AdmissionPolicyKind::AdmitAll));
  registry.add(
      "price",
      "defer deflatable classes while the spot quote exceeds the ceiling",
      builtin<PriceThresholdAdmission>(AdmissionPolicyKind::PriceThreshold),
      {"price-threshold"},
      {{"default_ceiling", "spot ceiling for classes without one", 0.35},
       {"max_defer_hours", "deferral window without a deadline", 6.0}});
  registry.add("bid-opt",
               "price thresholds supplied by the per-class bid optimizer",
               builtin<PriceThresholdAdmission>(
                   AdmissionPolicyKind::BidOptimized),
               {"bid-optimized"});
}

std::unique_ptr<AdmissionController> make_admission_controller_by_name(
    const std::string& name, const AdmissionConfig& config,
    ClusterManagerBase& manager, PriceFeed feed) {
  const auto* entry = AdmissionRegistry::instance().find(name);
  if (entry == nullptr) {
    throw std::invalid_argument(
        "unknown admission policy '" + name + "' (expected " +
        policy::joined_policy_names<AdmissionSurface>() + ")");
  }
  return entry->make(config, manager, std::move(feed));
}

std::unique_ptr<AdmissionController> make_admission_controller(
    AdmissionConfig config, ClusterManagerBase& manager, PriceFeed feed) {
  return make_admission_controller_by_name(admission_policy_name(config.policy),
                                           config, manager, std::move(feed));
}

}  // namespace deflate::cluster
