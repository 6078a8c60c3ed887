// VM-level trace records in the shape of the Azure Resource Central
// dataset: per-VM metadata (class label, size, lifetime) plus a 5-minute
// max-CPU utilization series (§3.2.1, §7.1.2).
#pragma once

#include <cstdint>
#include <vector>

#include "hypervisor/vm.hpp"
#include "sim/time.hpp"
#include "trace/series.hpp"

namespace deflate::trace {

/// Fig. 7's size buckets.
enum class SizeBucket { Small, Medium, Large };
[[nodiscard]] const char* size_bucket_name(SizeBucket b) noexcept;
[[nodiscard]] SizeBucket size_bucket_for_memory(double memory_mib) noexcept;

/// Fig. 8's 95th-percentile CPU buckets.
enum class PeakBucket { Low, Moderate, High, VeryHigh };
[[nodiscard]] const char* peak_bucket_name(PeakBucket b) noexcept;
[[nodiscard]] PeakBucket peak_bucket_for_p95(double p95) noexcept;

/// The cheap arrival-side header of a VmRecord: everything the streaming
/// replay index (src/trace/replay.hpp) needs to order and size arrivals
/// without materializing the 5-minute utilization series.
struct ArrivalStub {
  std::uint64_t id = 0;
  sim::SimTime start;
  sim::SimTime end;
  int vcpus = 0;
  double memory_mib = 0.0;
};

struct VmRecord {
  std::uint64_t id = 0;
  hv::WorkloadClass workload = hv::WorkloadClass::Unknown;
  int vcpus = 2;
  double memory_mib = 4096.0;
  double disk_bw_mbps = 100.0;
  double net_bw_mbps = 1000.0;
  sim::SimTime start;
  sim::SimTime end;
  UtilizationSeries cpu;  ///< fraction of the VM's CPU allocation, per 5 min

  [[nodiscard]] sim::SimTime lifetime() const noexcept { return end - start; }
  [[nodiscard]] ArrivalStub stub() const noexcept {
    return {id, start, end, vcpus, memory_mib};
  }
  [[nodiscard]] double p95_cpu() const { return cpu.percentile(0.95); }
  [[nodiscard]] SizeBucket size_bucket() const noexcept {
    return size_bucket_for_memory(memory_mib);
  }

  /// The paper marks interactive VMs as the deflatable pool (§7.1.2).
  [[nodiscard]] bool deflatable() const noexcept {
    return workload == hv::WorkloadClass::Interactive;
  }

  /// "We determine VM priorities based on their 95-th percentile CPU usage
  /// and use 4 priority levels" (§7.1.2). Higher peak usage -> higher
  /// priority -> deflated less.
  [[nodiscard]] double priority_level() const {
    return priority_from_p95(p95_cpu());
  }
  [[nodiscard]] static double priority_from_p95(double p95) noexcept;

  /// Builds a VmSpec for placing this trace VM in the cluster simulator.
  [[nodiscard]] hv::VmSpec to_spec() const;
};

}  // namespace deflate::trace
