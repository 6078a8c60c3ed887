// Per-VM-class bid optimization for transient markets (Sharma, Irwin &
// Shenoy, "Portfolio-driven Resource Management for Transient Cloud
// Servers", arXiv:1704.08738 §5).
//
// A spot bid trades acquisition price against revocation risk: bidding low
// keeps the per-core-hour payment near the market floor but loses the
// server on every small spike (and the displaced work must be served from
// on-demand capacity while the market is unaffordable); bidding high holds
// capacity through spikes at the cost of paying them. The right balance
// depends on how much a revocation *hurts*, which differs by VM priority
// class — interactive, high-priority VMs lose far more work per
// interruption than batch-like low-priority ones. This optimizer therefore
// picks one bid per priority class by minimizing, over the observed price
// trace, the expected cost of serving one core-hour of that class's
// demand:
//
//   cost(b) = a(b) * E[p | p <= b]          spot payment while affordable
//           + (1 - a(b)) * p_od             on-demand fallback while not
//           + penalty_c * r(b)              revocation loss (class-scaled)
//
// where a(b) is the fraction of trace time with price <= b, r(b) the rate
// of upward bid-crossings per hour (each crossing revokes the server and
// interrupts its residents — the temporally-constrained revocation
// modeling of arXiv:1911.05160 supplies r for non-price-crossing markets,
// where it is bid-independent), and penalty_c the class's cost of one
// interruption in equivalent on-demand core-hours. The candidate set is
// the trace's distinct price levels plus the on-demand price, so the
// optimum is exact for step-function traces — no search tolerance, and
// bit-identical results across platforms.
#pragma once

#include <cstddef>
#include <vector>

#include "transient/revocation.hpp"
#include "transient/spot_price.hpp"

namespace deflate::transient {

struct BidOptimizerConfig {
  /// Per-core-hour rate of the on-demand fallback that serves demand while
  /// the market trades above the bid (and absorbs revoked work).
  double on_demand_price = 1.0;
  /// Fraction of the on-demand rate the fallback actually costs. A
  /// deflation fleet does not buy replacement capacity for every
  /// unaffordable hour — it deflates the survivors and defers deflatable
  /// launches (src/cluster/admission.hpp), so the realized cost of an
  /// unaffordable window is a fraction of the sticker rate. 1.0 recovers
  /// the classic Sharma-style full-replacement objective.
  double fallback_discount = 0.5;
  /// Cost of one revocation per core, in equivalent on-demand core-hours,
  /// indexed by priority class (0 = on-demand — never bids, entry unused;
  /// 1 = most-deflatable class rising to the least-deflatable). Classes
  /// beyond the vector reuse the last entry. Deflation absorbs most
  /// revocations without killing anything, so the defaults are churn
  /// costs (re-placement, deflation pressure, cold caches), not
  /// total-loss costs.
  std::vector<double> class_penalty_hours{0.0, 0.1, 0.25, 0.5, 1.0};
};

/// One class's optimal bid and the market behavior it buys.
struct ClassBid {
  std::size_t priority_class = 0;
  double bid = 0.0;
  /// Expected per-core-hour cost of serving this class at `bid` (the
  /// minimized objective; on-demand = 1.0).
  double expected_cost = 1.0;
  /// Fraction of trace time the market is affordable at `bid`.
  double availability = 1.0;
  /// Expected revocations per hour at `bid` under the resolved model:
  /// upward bid-crossings for price-crossing markets.
  double revocation_rate_per_hour = 0.0;
};

class BidOptimizer {
 public:
  explicit BidOptimizer(BidOptimizerConfig config) noexcept
      : config_(config) {}

  /// The objective above (with the fallback term scaled by
  /// `fallback_discount`), evaluated exactly on the trace. r(b) is the
  /// rate the registry model `revocation` selects (revocation_model_of)
  /// reports at bid b: bid-crossings for price crossing, a bid-independent
  /// rate for the other builtins, whatever a plugin model reports.
  [[nodiscard]] double expected_cost(const PriceTrace& trace, double bid,
                                     double penalty_hours,
                                     const RevocationConfig& revocation) const;

  /// Minimizes the objective for one class over the trace's distinct price
  /// levels plus the on-demand price. Ties go to the lowest bid
  /// (deterministic; less exposure for equal cost). An empty trace returns
  /// the on-demand price as the bid (degenerate: always affordable).
  [[nodiscard]] ClassBid optimize(const PriceTrace& trace,
                                  std::size_t priority_class,
                                  const RevocationConfig& revocation) const;

  /// One ClassBid per configured class (index-aligned with
  /// config().class_penalty_hours; entry 0 is the on-demand class and
  /// carries the on-demand price as a no-op bid).
  [[nodiscard]] std::vector<ClassBid> optimize_classes(
      const PriceTrace& trace, const RevocationConfig& revocation) const;

  /// Penalty of `priority_class` (clamped to the configured table).
  [[nodiscard]] double penalty_for(std::size_t priority_class) const noexcept;

  [[nodiscard]] const BidOptimizerConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Revocations per hour at `bid` under the model `revocation` selects.
  [[nodiscard]] static double revocation_rate(
      const PriceTrace& trace, double bid, const RevocationConfig& revocation);
  /// The objective with the revocation rate already known (lets
  /// optimize() resolve the model once per sweep).
  [[nodiscard]] double cost_at_rate(const PriceTrace& trace, double bid,
                                    double penalty_hours, double rate) const;

  BidOptimizerConfig config_;
};

}  // namespace deflate::transient
