// Admission API v2: the price-aware request/decision protocol layered in
// front of placement (ROADMAP: "price-aware admission & bidding
// policies").
//
// `ClusterManagerBase::place_vm` admits every VM the moment it arrives —
// a bare spec in, Placed/PlacedDeflated/Rejected out, with no price
// context and no "not now, retry later" outcome. This header upgrades the
// admission surface to a request/decision protocol: an `AdmissionRequest`
// carries the spec *plus* its priority class, arrival time and an
// optional deadline (maximum deferral window), and an `AdmissionDecision`
// adds two outcomes placement alone cannot express — `Deferred` (come
// back when the market is cheaper) and a reason code — along with the
// per-core-hour spot price quoted at decision time. Sharma et al.
// (arXiv:1704.08738 §5) show that deferring low-priority launches while
// the spot price is high is where much of the transient cost saving
// lives; the policies here implement exactly that:
//
//   * AdmitAll       — the legacy contract, bit for bit: every request
//                      goes straight to place_vm (`place_vm` remains the
//                      compatibility shim for spec-only callers).
//   * PriceThreshold — deflatable classes are deferred while the spot
//                      quote exceeds their per-class price ceiling; the
//                      deferral queue is drained by the simulation loop
//                      when the price drops or the deadline hits (expired
//                      deferrals become rejections). A queued request that
//                      finds the price affordable but the fleet
//                      momentarily full re-defers one price step instead
//                      of dying — revoked capacity returns recovery_hours
//                      after the price drop.
//   * BidOptimized   — PriceThreshold with ceilings supplied by the
//                      per-class bid optimizer (src/transient/bidding.hpp
//                      via `transient::CapacityPlan::class_ceilings`)
//                      instead of hand-set values.
//
// Deferral-queue invariants (the simulator relies on these):
//   * every queued entry has retry_at <= deadline, and deadline is
//     clamped by the caller so a request can never be admitted after its
//     demand window closed;
//   * drain(now) resolves every entry with retry_at <= now — to a
//     placement, a re-deferral (strictly later retry_at) or a
//     DeadlineExpired rejection — so the queue never holds an entry whose
//     retry time is in the past;
//   * entries due at the same instant resolve in (arrival, vm id) order,
//     first-queued first among equal keys (a client may repeat an id),
//     ahead of any same-instant fresh arrival the caller processes after
//     drain — deterministic replay, independent of queue internals.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hpp"
#include "policy/registry.hpp"
#include "sim/time.hpp"
#include "transient/spot_price.hpp"

namespace deflate::cluster {

/// Priority classes mirror the partition pools (partitions.hpp): class 0
/// is on-demand, classes 1..4 the deflatable priority levels (§7.1.2),
/// rising with priority.
inline constexpr std::size_t kAdmissionClasses = 5;

struct AdmissionRequest {
  hv::VmSpec spec;
  /// 0 = on-demand, 1..kAdmissionClasses-1 = deflatable classes.
  std::size_t priority_class = 0;
  sim::SimTime arrival;
  /// Latest admit time; unset = arrival + AdmissionConfig::max_defer_hours.
  std::optional<sim::SimTime> deadline;
  /// Opaque to the controller, which never reads it: drain() hands it
  /// back in Resolved::request, so a caller correlates a resolution with
  /// the request it submitted even when two requests share a vm id. The
  /// service puts the client's request id here; it is not on the wire.
  std::uint64_t tag = 0;

  /// Builds a request from a spec, deriving the priority class the same
  /// way partitioned placement does (pool_for_priority).
  [[nodiscard]] static AdmissionRequest from_spec(const hv::VmSpec& spec,
                                                  sim::SimTime arrival);
};

struct AdmissionDecision {
  enum class Status {
    Placed,
    PlacedDeflated,  ///< admitted, launched below full size
    Deferred,        ///< not now: retry at `retry_at`
    Rejected,
  };
  enum class Reason {
    Admitted,          ///< placed (possibly deflated)
    CapacityRejected,  ///< the placement layer rejected the VM
    PriceDeferred,     ///< spot quote above the class ceiling
    CapacityDeferred,  ///< price fine, fleet momentarily full; window left
    DeadlineExpired,   ///< deferral window ran out with the price still high
  };
  Status status = Status::Rejected;
  Reason reason = Reason::CapacityRejected;
  /// Spot price per core-hour quoted at decision time: the cheapest
  /// transient market's price, or the on-demand rate when no market feed
  /// is attached.
  double quoted_price = 1.0;
  /// The underlying placement; meaningful when admitted().
  PlacementResult placement;
  /// Deferred only: when the policy wants the request re-evaluated
  /// (the next affordable price step, clamped to the deadline).
  sim::SimTime retry_at;

  [[nodiscard]] bool admitted() const noexcept {
    return status == Status::Placed || status == Status::PlacedDeflated;
  }
};

/// An alias of the admission registry's builtins: configs resolve it
/// through its primary name.
enum class AdmissionPolicyKind { AdmitAll, PriceThreshold, BidOptimized };

/// The registry primary name `p` aliases.
[[nodiscard]] const char* admission_policy_name(AdmissionPolicyKind p) noexcept;

struct AdmissionConfig {
  /// The alias `make_admission_controller` resolves. A built controller's
  /// config carries the kind of the registry entry that built it.
  AdmissionPolicyKind policy = AdmissionPolicyKind::AdmitAll;
  /// Per-class spot ceilings, indexed by priority class (entry 0 is the
  /// on-demand class and is ignored — class 0 is never deferred). Classes
  /// beyond the vector use `default_ceiling`. The BidOptimized policy
  /// fills this from `transient::CapacityPlan::class_ceilings`.
  std::vector<double> class_ceilings;
  double default_ceiling = 0.35;
  /// Deferral window for requests without an explicit deadline.
  double max_defer_hours = 6.0;
};

struct AdmissionStats {
  std::uint64_t requests = 0;   ///< decide() calls on fresh requests
  std::uint64_t admitted = 0;
  std::uint64_t deferrals = 0;  ///< requests deferred at least once
  std::uint64_t retries = 0;    ///< queue re-evaluations that deferred again
  std::uint64_t expired = 0;    ///< deferrals that hit their deadline
  std::uint64_t rejected = 0;   ///< capacity rejections through the protocol
};

/// Read-only spot-price feed the price-aware policies quote from: the
/// minimum across the attached markets' traces. With no traces attached
/// (no transient market) the quote is the on-demand rate and the
/// price-aware policies degrade to AdmitAll — there is no market to wait
/// out. Trace lifetimes must cover the feed's.
class PriceFeed {
 public:
  PriceFeed() = default;
  PriceFeed(std::vector<const transient::PriceTrace*> traces,
            double on_demand_price);

  /// Cheapest market price at `now` (on-demand rate when empty).
  [[nodiscard]] double quote(sim::SimTime now) const noexcept;
  /// Finest sampling step across the attached traces (zero when empty) —
  /// the natural retry granularity for capacity deferrals.
  [[nodiscard]] sim::SimTime step() const noexcept;
  /// Earliest step-boundary in (from, until] where the quote is at or
  /// below `ceiling`; nullopt when the quote stays above it (or the feed
  /// is empty).
  [[nodiscard]] std::optional<sim::SimTime> next_at_or_below(
      double ceiling, sim::SimTime from, sim::SimTime until) const;

  [[nodiscard]] bool empty() const noexcept { return traces_.empty(); }
  [[nodiscard]] double on_demand_price() const noexcept {
    return on_demand_price_;
  }

 private:
  std::vector<const transient::PriceTrace*> traces_;
  double on_demand_price_ = 1.0;
};

/// The admission stage: policies subclass `evaluate`; the base class owns
/// the deferral queue, the stats and the placement forwarding. One
/// controller fronts one ClusterManagerBase (the protocol only uses the
/// common interface).
class AdmissionController {
 public:
  AdmissionController(AdmissionConfig config, ClusterManagerBase& manager,
                      PriceFeed feed);
  virtual ~AdmissionController() = default;

  /// The protocol entry: decide on a fresh request at `now`. A Deferred
  /// decision queues the request internally; the caller schedules a wake-
  /// up at `retry_at` and calls drain().
  AdmissionDecision decide(const AdmissionRequest& request, sim::SimTime now);

  /// Earliest queued retry, if any.
  [[nodiscard]] std::optional<sim::SimTime> next_retry() const;

  struct Resolved {
    AdmissionRequest request;
    AdmissionDecision decision;
  };
  /// Re-evaluates every queued request due at or before `now`; returns
  /// the ones that resolved (admitted, capacity-rejected or expired).
  /// Re-deferred requests stay queued with a strictly later retry_at.
  std::vector<Resolved> drain(sim::SimTime now);

  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }
  [[nodiscard]] const AdmissionStats& stats() const noexcept { return stats_; }

  /// The manager's counters with the admission breakdown folded in:
  /// `ClusterStats::admission_deferrals` / `admission_expired` filled from
  /// this controller, expired deferrals added to `rejections` (an expired
  /// deferral is a rejection the placement layer never saw).
  [[nodiscard]] ClusterStats cluster_stats() const;

  [[nodiscard]] const AdmissionConfig& config() const noexcept {
    return config_;
  }

  /// Replaces the per-class price ceilings on the live controller. The
  /// online control plane (src/control) pushes re-optimized ceilings here
  /// at a tick barrier; already-queued requests re-evaluate against the
  /// new table on their next drain. Empty reverts every class to
  /// `default_ceiling`.
  void set_class_ceilings(std::vector<double> ceilings) noexcept {
    config_.class_ceilings = std::move(ceilings);
  }

 protected:
  /// Policy hook: admit now (use place()), defer (status Deferred with
  /// retry_at set) or reject. The base implementation admits everything.
  virtual AdmissionDecision evaluate(const AdmissionRequest& request,
                                     sim::SimTime now);

  /// Forwards to the manager's place_vm and maps the result onto the
  /// decision protocol, quoting the current price.
  AdmissionDecision place(const AdmissionRequest& request, sim::SimTime now);

  /// Price-aware policies only: place, but convert a capacity rejection
  /// into a short re-deferral while the request still has window left (a
  /// price-crossing restore lands `recovery_hours` after the price drop —
  /// a queued request must not die in that gap). The manager's counters
  /// charged by the failed attempt are recorded as retry noise and
  /// subtracted again by cluster_stats(), so only final outcomes show up
  /// in the end-to-end stats.
  AdmissionDecision place_or_requeue(const AdmissionRequest& request,
                                     sim::SimTime now);

  /// Effective ceiling of `priority_class` (config table, falling back to
  /// default_ceiling).
  [[nodiscard]] double ceiling_for(std::size_t priority_class) const noexcept;
  /// The request's effective deadline (explicit, or arrival + window).
  [[nodiscard]] sim::SimTime deadline_of(
      const AdmissionRequest& request) const noexcept;

  ClusterManagerBase& manager_;
  PriceFeed feed_;

 private:
  struct Pending {
    AdmissionRequest request;
    sim::SimTime retry_at;
    /// This controller's enqueue count when the entry was queued: breaks
    /// ties among equal (retry_at, arrival, vm id) keys first-in first-out.
    std::uint64_t sequence = 0;
  };

  /// Counts a decision's final outcome (admitted, expired or rejected);
  /// false, counting nothing, when it deferred.
  bool count_resolved(const AdmissionDecision& decision) noexcept;
  /// Queues `request` for a retry at `retry_at`.
  void enqueue(const AdmissionRequest& request, sim::SimTime retry_at);

  AdmissionConfig config_;
  /// A binary min-heap on (retry_at, arrival, vm id, sequence): front()
  /// is the next entry due. See the queue invariants in the header
  /// comment.
  std::vector<Pending> queue_;
  std::uint64_t next_sequence_ = 0;
  AdmissionStats stats_;
  /// Manager-counter increments from placement attempts whose rejection
  /// was converted into a re-deferral (retry noise; only the final
  /// attempt's outcome is end-to-end meaningful). Subtracted by
  /// cluster_stats().
  std::uint64_t spurious_rejections_ = 0;
  std::uint64_t spurious_reclamation_attempts_ = 0;
  std::uint64_t spurious_reclamation_failures_ = 0;
};

/// AdmitAll: the legacy behavior behind the new protocol — every request
/// placed immediately, decision-for-decision identical to bare place_vm.
class AdmitAllAdmission final : public AdmissionController {
 public:
  using AdmissionController::AdmissionController;
};

/// PriceThreshold: defer deflatable classes while the spot quote exceeds
/// their ceiling; admit class 0 (and everything else once the price drops
/// or with an empty feed) immediately. The `bid-opt` policy is this class
/// with ceilings from the per-class bid optimizer (the caller pushes the
/// capacity plan's `class_ceilings`).
class PriceThresholdAdmission : public AdmissionController {
 public:
  using AdmissionController::AdmissionController;

 protected:
  AdmissionDecision evaluate(const AdmissionRequest& request,
                             sim::SimTime now) override;
};

/// Registry surface for admission policies (`AdmissionRegistry`). The
/// deflated daemon picks its policy here by name and advertises every name
/// in its Hello; link-time plugins add to the same process-wide set.
/// Names: admit-all, price, bid-opt.
struct AdmissionSurface {
  static constexpr const char* kSurfaceName = "admission";
  static constexpr const char* kSurfaceDescription =
      "price-aware request/decision protocol in front of placement";
  /// Builds a controller over the caller's manager and price feed. The
  /// name picked the entry: a builtin overwrites the config's `policy`
  /// with its own kind.
  using Factory = std::function<std::unique_ptr<AdmissionController>(
      const AdmissionConfig&, ClusterManagerBase&, PriceFeed)>;
  static void register_builtins(policy::PolicyRegistry<AdmissionSurface>&);
};

using AdmissionRegistry = policy::PolicyRegistry<AdmissionSurface>;

/// Builds a registered policy's controller by name; throws
/// std::invalid_argument naming the valid choices when unknown.
[[nodiscard]] std::unique_ptr<AdmissionController>
make_admission_controller_by_name(const std::string& name,
                                  const AdmissionConfig& config,
                                  ClusterManagerBase& manager, PriceFeed feed);

/// make_admission_controller_by_name for the policy `config.policy`
/// aliases.
[[nodiscard]] std::unique_ptr<AdmissionController> make_admission_controller(
    AdmissionConfig config, ClusterManagerBase& manager, PriceFeed feed);

}  // namespace deflate::cluster
