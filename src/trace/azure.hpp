// Synthetic Azure-style VM trace generator (paper §3, Figs. 5-12).
//
// The Azure Resource Central dataset [Cortez et al., SOSP'17] provides, per
// VM: a workload-class label (interactive / delay-insensitive / unknown),
// size, lifetime, and a 5-minute max-CPU-utilization series. This generator
// reproduces the *statistical shape* the paper's feasibility analysis
// depends on:
//   * interactive VMs: low base utilization, pronounced diurnal swing, and
//     bursty interval-max spikes — substantial slack (Fig. 6);
//   * delay-insensitive (batch) VMs: higher sustained utilization with long
//     busy phases — less slack (Fig. 6);
//   * utilization independent of VM size (Fig. 7);
//   * a wide spread of 95th-percentile peaks across VMs (Fig. 8).
// All draws are keyed by (seed, vm id): generation order and thread count
// do not change the trace.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/vm_record.hpp"

namespace deflate::util {
class Rng;
}

namespace deflate::trace {

struct AzureTraceConfig {
  std::size_t vm_count = 10000;
  std::uint64_t seed = 42;
  /// Trace horizon; VM lifetimes fall within [0, duration].
  sim::SimTime duration = sim::SimTime::from_hours(24 * 3);
  /// Workload mix. The paper reports its sampled trace as roughly 50%
  /// interactive (deflatable), the rest batch/unknown (§7.1.2).
  double interactive_share = 0.50;
  double delay_insensitive_share = 0.30;  ///< remainder is "unknown"
  /// Minimum VM lifetime; Azure VMs shorter than this are not interesting
  /// for deflation studies.
  sim::SimTime min_lifetime = sim::SimTime::from_hours(1);
  /// Arrival cohorts. Cloud commitment is a small always-on base, a large
  /// business-hours cohort of short-lived VMs (this produces the sharp
  /// daily committed-capacity peak that providers size for, §7.1.2), and
  /// uniform background churn. The resulting average/peak commitment ratio
  /// (~0.5-0.6) is what keeps deflation episodes brief at moderate
  /// overcommitment — the precondition for the paper's low throughput
  /// losses (Fig. 21).
  double persistent_share = 0.05;
  double diurnal_share = 0.70;
  /// Diurnal-cohort arrival time-of-day: Normal(peak_hour, spread).
  double diurnal_peak_hour = 13.0;
  double diurnal_spread_hours = 1.8;
  sim::SimTime diurnal_max_lifetime = sim::SimTime::from_hours(10);
};

class AzureTraceGenerator {
 public:
  explicit AzureTraceGenerator(AzureTraceConfig config) : config_(config) {}

  /// Generates the whole trace (parallelized across VMs, deterministic).
  [[nodiscard]] std::vector<VmRecord> generate() const;

  /// Generates a single VM record (id in [0, vm_count)); the unit other
  /// generators and tests build on.
  [[nodiscard]] VmRecord generate_vm(std::uint64_t vm_id) const;

  /// The arrival-side header of `generate_vm(vm_id)` — same class, size and
  /// lifetime draws, without the utilization series. Costs O(1) instead of
  /// O(lifetime), which is what lets the streaming replay index a
  /// million-VM trace without materializing it.
  [[nodiscard]] ArrivalStub arrival_of(std::uint64_t vm_id) const;

  [[nodiscard]] const AzureTraceConfig& config() const noexcept { return config_; }

 private:
  /// Consumes the arrival-side draws (class, size, cohort, lifetime) from
  /// `rng`, filling the record's header fields. Returns the unquantized
  /// start in hours: generate_vm's series loop needs the exact double, not
  /// the micro-rounded record.start, to stay bit-identical.
  double draw_arrival(util::Rng& rng, VmRecord& record) const;

  AzureTraceConfig config_;
};

}  // namespace deflate::trace
