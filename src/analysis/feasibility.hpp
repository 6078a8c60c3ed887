// Usage-based deflation feasibility analysis (§3.2).
//
// For a deflation level d, a VM's allocation shrinks to (1-d)*spec; the VM
// is "underallocated" in any interval whose (max) usage exceeds that. The
// statistics here — distribution across VMs of the fraction of time spent
// underallocated, with class/size/P95 breakdowns — are exactly what
// Figures 5-12 plot.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "trace/alibaba.hpp"
#include "trace/replay.hpp"
#include "trace/vm_record.hpp"
#include "util/stats.hpp"

namespace deflate::analysis {

/// Distribution, across VMs, of time-fraction-above-deflated-allocation.
/// `filter` restricts the VM population (class/size/peak breakdowns);
/// pass nullptr for all VMs.
[[nodiscard]] util::BoxStats cpu_underallocation_box(
    std::span<const trace::VmRecord> records, double deflation,
    const std::function<bool(const trace::VmRecord&)>& filter = nullptr);

/// Per-VM fractions (the raw points behind the box plot).
[[nodiscard]] std::vector<double> cpu_underallocation_fractions(
    std::span<const trace::VmRecord> records, double deflation,
    const std::function<bool(const trace::VmRecord&)>& filter = nullptr);

/// Streaming variant for bounded-memory traces: consumes `stream` in ONE
/// pass, computing every (group, deflation-level) box together, so the
/// trace is never materialized — only the per-VM statistic doubles are
/// retained. `group` maps a VM to an index in [0, group_count) (negative or
/// out-of-range drops the VM; nullptr puts every VM in group 0). The result
/// is indexed [group][deflation]. Numerically identical to calling
/// cpu_underallocation_box per (group, level) on the materialized records:
/// the per-VM statistic is order-independent and BoxStats sorts its input.
[[nodiscard]] std::vector<std::vector<util::BoxStats>>
cpu_underallocation_boxes(
    trace::VmArrivalStream& stream, std::span<const double> deflations,
    std::size_t group_count = 1,
    const std::function<int(const trace::VmRecord&)>& group = nullptr);

/// Selector for one of the container series (memory, memory_bw, ...).
using ContainerSeries =
    const trace::UtilizationSeries& (*)(const trace::ContainerRecord&);

[[nodiscard]] inline const trace::UtilizationSeries& memory_series(
    const trace::ContainerRecord& c) {
  return c.memory;
}
[[nodiscard]] inline const trace::UtilizationSeries& memory_bw_series(
    const trace::ContainerRecord& c) {
  return c.memory_bw;
}
[[nodiscard]] inline const trace::UtilizationSeries& disk_series(
    const trace::ContainerRecord& c) {
  return c.disk_bw;
}
[[nodiscard]] inline const trace::UtilizationSeries& net_series(
    const trace::ContainerRecord& c) {
  return c.net_bw;
}

/// Box plot of time-above-deflated-allocation for a container resource
/// (Figs. 9, 11, 12).
[[nodiscard]] util::BoxStats container_underallocation_box(
    std::span<const trace::ContainerRecord> containers, ContainerSeries series,
    double deflation);

/// Population-wide utilization statistics of a container resource (Fig. 10
/// reports the mean and max memory-bandwidth utilization). Each container's
/// samples are folded into their own stats, merged in container order, so
/// the result is the same bits at any thread count.
[[nodiscard]] util::RunningStats container_utilization_stats(
    std::span<const trace::ContainerRecord> containers, ContainerSeries series);

/// Throughput loss of one VM under a fixed deflated allocation `alloc`
/// (fraction of spec): sum(max(0, u - alloc)) / sum(u) (§7.4.2, Fig. 4).
[[nodiscard]] double throughput_loss(const trace::VmRecord& record, double alloc);

}  // namespace deflate::analysis
