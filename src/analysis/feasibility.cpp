#include "analysis/feasibility.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace deflate::analysis {

std::vector<double> cpu_underallocation_fractions(
    std::span<const trace::VmRecord> records, double deflation,
    const std::function<bool(const trace::VmRecord&)>& filter) {
  const double threshold = 1.0 - deflation;
  std::vector<double> fractions(records.size(), -1.0);
  util::parallel_for(records.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const trace::VmRecord& record = records[i];
      if (filter && !filter(record)) continue;
      fractions[i] = record.cpu.fraction_above(threshold);
    }
  });
  // Compact out filtered entries while preserving order.
  std::vector<double> out;
  out.reserve(fractions.size());
  for (const double f : fractions) {
    if (f >= 0.0) out.push_back(f);
  }
  return out;
}

util::BoxStats cpu_underallocation_box(
    std::span<const trace::VmRecord> records, double deflation,
    const std::function<bool(const trace::VmRecord&)>& filter) {
  return util::BoxStats::from(
      cpu_underallocation_fractions(records, deflation, filter));
}

std::vector<std::vector<util::BoxStats>> cpu_underallocation_boxes(
    trace::VmArrivalStream& stream, std::span<const double> deflations,
    std::size_t group_count,
    const std::function<int(const trace::VmRecord&)>& group) {
  std::vector<std::vector<std::vector<double>>> fractions(
      group_count, std::vector<std::vector<double>>(deflations.size()));
  while (const auto record = stream.next()) {
    const int g = group ? group(*record) : 0;
    if (g < 0 || static_cast<std::size_t>(g) >= group_count) continue;
    for (std::size_t i = 0; i < deflations.size(); ++i) {
      fractions[g][i].push_back(
          record->cpu.fraction_above(1.0 - deflations[i]));
    }
  }
  std::vector<std::vector<util::BoxStats>> out(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    out[g].reserve(deflations.size());
    for (std::size_t i = 0; i < deflations.size(); ++i) {
      out[g].push_back(util::BoxStats::from(fractions[g][i]));
    }
  }
  return out;
}

util::BoxStats container_underallocation_box(
    std::span<const trace::ContainerRecord> containers, ContainerSeries series,
    double deflation) {
  const double threshold = 1.0 - deflation;
  std::vector<double> fractions(containers.size());
  util::parallel_for(containers.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      fractions[i] = series(containers[i]).fraction_above(threshold);
    }
  });
  return util::BoxStats::from(fractions);
}

util::RunningStats container_utilization_stats(
    std::span<const trace::ContainerRecord> containers, ContainerSeries series) {
  // One RunningStats per container, merged in container order after the
  // join: the result cannot depend on thread timing or thread count.
  std::vector<util::RunningStats> per_container(containers.size());
  util::parallel_for(containers.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (const float s : series(containers[i]).samples()) {
        per_container[i].push(static_cast<double>(s));
      }
    }
  });
  util::RunningStats total;
  for (const util::RunningStats& stats : per_container) total.merge(stats);
  return total;
}

double throughput_loss(const trace::VmRecord& record, double alloc) {
  const std::vector<float> allocation(record.cpu.size(),
                                      static_cast<float>(alloc));
  const auto result = record.cpu.underallocation(allocation);
  return result.used > 0.0 ? result.lost / result.used : 0.0;
}

}  // namespace deflate::analysis
