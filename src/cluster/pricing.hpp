// Pricing schemes for deflatable VMs (§5.2.2, evaluated in Fig. 22):
//   * Static: fixed discount — deflatable VMs pay 0.2x the on-demand price
//     for their *committed* size, regardless of deflation.
//   * Priority-based: price equals the VM's priority level pi (priority-0.5
//     VMs pay 0.5x on-demand), again on committed size.
//   * Allocation-based: VMs pay the deflatable base rate weighted by the
//     resources *actually allocated* over time (half price at 50%
//     allocation).
// Prices are normalized to an on-demand rate of 1.0 per core-hour; CPU is
// the billing dimension (cloud VM prices scale with core count).
#pragma once

#include <string>

namespace deflate::cluster {

enum class PricingScheme { Static, PriorityBased, AllocationBased };

[[nodiscard]] const char* pricing_scheme_name(PricingScheme s) noexcept;

/// §5.2.2: "60-80% discount ... similar to current transient servers";
/// the paper's Fig. 22 uses 0.2x on-demand.
inline constexpr double kStaticDeflatableRate = 0.2;
inline constexpr double kOnDemandRate = 1.0;

/// Usage integrals accumulated by the cluster simulator.
struct RevenueTotals {
  double od_committed_core_hours = 0.0;  ///< on-demand VMs (never deflated)
  double df_committed_core_hours = 0.0;  ///< deflatable VMs, spec size
  double df_allocated_core_hours = 0.0;  ///< deflatable VMs, actual allocation
  /// sum over deflatable VMs of priority * committed core-hours.
  double df_priority_committed_core_hours = 0.0;

  RevenueTotals& operator+=(const RevenueTotals& rhs) noexcept;
  bool operator==(const RevenueTotals&) const = default;
};

/// Revenue earned from on-demand VMs.
[[nodiscard]] double on_demand_revenue(const RevenueTotals& totals) noexcept;

/// Revenue earned from deflatable VMs under the given scheme.
[[nodiscard]] double deflatable_revenue(const RevenueTotals& totals,
                                        PricingScheme scheme) noexcept;

/// Fig. 22's y-axis: the extra revenue deflatable VMs bring, relative to
/// the on-demand revenue of the same cluster, in percent.
[[nodiscard]] double revenue_increase_percent(const RevenueTotals& totals,
                                              PricingScheme scheme) noexcept;

}  // namespace deflate::cluster
