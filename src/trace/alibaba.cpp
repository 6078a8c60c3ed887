#include "trace/alibaba.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/parallel.hpp"

namespace deflate::trace {

ContainerRecord AlibabaTraceGenerator::generate_container(std::uint64_t id) const {
  util::Rng rng = util::Rng::keyed(config_.seed ^ 0xa11babaULL, id);
  ContainerRecord record;
  record.id = id;

  const auto samples = static_cast<std::size_t>(std::max<std::int64_t>(
      1, config_.duration.micros() / kTraceInterval.micros()));

  // Memory: JVM-style heap pre-allocation — high, nearly flat usage with a
  // slow random walk and rare dips (container restarts / GC compaction).
  const double mem_level = std::clamp(rng.normal(0.92, 0.035), 0.70, 0.99);
  // Memory bandwidth: per-container scale such that the population mean is
  // ~0.05-0.1% and maxima ~1% (Fig. 10's headline numbers).
  const double membw_scale = rng.lognormal(std::log(4e-4), 0.8);
  // Disk: low base with rare spikes.
  const double disk_base = rng.uniform(0.01, 0.08);
  const double disk_spike_prob = rng.uniform(0.002, 0.01);
  // Network: low base, occasional moderate spikes.
  const double net_base = rng.uniform(0.02, 0.12);
  const double net_spike_prob = rng.uniform(0.004, 0.02);

  std::vector<float> mem, membw, disk, net;
  mem.reserve(samples);
  membw.reserve(samples);
  disk.reserve(samples);
  net.reserve(samples);

  double walk = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    walk = std::clamp(walk + rng.normal(0.0, 0.004), -0.05, 0.05);
    double m = mem_level + walk;
    if (rng.u01() < 0.002) m -= rng.uniform(0.1, 0.3);  // restart dip
    mem.push_back(static_cast<float>(std::clamp(m, 0.0, 1.0)));

    const double bw = membw_scale * rng.lognormal(0.0, 0.7);
    membw.push_back(static_cast<float>(std::clamp(bw, 0.0, 0.012)));

    double d = disk_base * rng.lognormal(0.0, 0.5);
    if (rng.u01() < disk_spike_prob) d += rng.uniform(0.25, 0.75);
    disk.push_back(static_cast<float>(std::clamp(d, 0.0, 1.0)));

    double n = net_base * rng.lognormal(0.0, 0.4);
    if (rng.u01() < net_spike_prob) n += rng.uniform(0.10, 0.30);
    net.push_back(static_cast<float>(std::clamp(n, 0.0, 1.0)));
  }

  record.memory = UtilizationSeries(std::move(mem));
  record.memory_bw = UtilizationSeries(std::move(membw));
  record.disk_bw = UtilizationSeries(std::move(disk));
  record.net_bw = UtilizationSeries(std::move(net));
  return record;
}

std::vector<ContainerRecord> AlibabaTraceGenerator::generate() const {
  std::vector<ContainerRecord> records(config_.container_count);
  util::parallel_for(config_.container_count,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         records[i] = generate_container(i);
                       }
                     });
  return records;
}

}  // namespace deflate::trace
