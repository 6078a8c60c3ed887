#include "layers.hpp"

#include <algorithm>
#include <iostream>
#include <vector>

#include "latency.hpp"
#include "util/profiler.hpp"

namespace perfbench {

ProfileRows profile_rows() {
  ProfileRows rows;
  for (const auto& phase : deflate::util::Profiler::instance().snapshot()) {
    rows[phase.name] = {phase.calls, phase.seconds};
  }
  return rows;
}

ProfileRow row_of(const ProfileRows& rows, const std::string& name) {
  const auto it = rows.find(name);
  return it == rows.end() ? ProfileRow{} : it->second;
}

SpanRecorder::NameStats stats_of(const SpanStats& stats,
                                 const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? SpanRecorder::NameStats{} : it->second;
}

double percentile_ns(const SpanRecorder::NameStats& stats, double q) {
  std::vector<double> sorted = stats.durations_ns;
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, q);
}

void set_profile_metrics(const ProfileRows& rows, bool sharded,
                         double cpu_util, Result& result) {
  const ProfileRow fleet_place =
      row_of(rows, sharded ? "sharded.place" : "cluster.place");
  const ProfileRow fleet_flush =
      row_of(rows, sharded ? "sharded.flush_views" : "cluster.flush_views");
  const ProfileRow cluster_place = row_of(rows, "cluster.place");
  const ProfileRow cluster_flush = row_of(rows, "cluster.flush_views");
  const auto count = [](std::uint64_t calls) {
    return static_cast<double>(calls);
  };
  result.set("fleet.place.calls", count(fleet_place.calls));
  result.set("fleet.place.mean_us", fleet_place.mean_us());
  result.set("fleet.place.total_s", fleet_place.seconds);
  result.set("fleet.flush_views.calls", count(fleet_flush.calls));
  result.set("fleet.flush_views.mean_us", fleet_flush.mean_us());
  result.set("fleet.flush_views.total_s", fleet_flush.seconds);
  result.set("sharded.place.calls", count(row_of(rows, "sharded.place").calls));
  result.set("sharded.flush_views.calls",
             count(row_of(rows, "sharded.flush_views").calls));
  result.set("sharded.attempts_per_place",
             fleet_place.calls == 0 ? 0.0
                                    : count(cluster_place.calls) /
                                          count(fleet_place.calls));
  result.set("cluster.place.calls", count(cluster_place.calls));
  result.set("cluster.place.mean_us", cluster_place.mean_us());
  result.set("cluster.place.total_s", cluster_place.seconds);
  result.set("cluster.flush_views.calls", count(cluster_flush.calls));
  result.set("cluster.flush_views.mean_us", cluster_flush.mean_us());
  result.set("cluster.flush_views.total_s", cluster_flush.seconds);
  result.set("cluster.revoke.calls", count(row_of(rows, "cluster.revoke").calls));
  result.set("process.cpu_util", cpu_util);
}

void set_span_metrics(const SpanStats& stats, Result& result) {
  for (const char* name :
       {"manager.place_vm", "manager.remove_vm", "manager.flush_views",
        "manager.revoke_server", "migration.begin_warning",
        "migration.finish_revocation", "control.reoptimize",
        "admission.decide", "admission.drain", "client.flush", "trace.next"}) {
    result.set(std::string(name) + ".calls",
               static_cast<double>(stats_of(stats, name).calls));
  }
  for (const char* name : {"manager.place_vm", "admission.decide"}) {
    const SpanRecorder::NameStats span = stats_of(stats, name);
    result.set(std::string(name) + ".p50_us", percentile_ns(span, 50.0) * 1e-3);
    result.set(std::string(name) + ".p99_us", percentile_ns(span, 99.0) * 1e-3);
  }
  result.set("admission.decide.total_s",
             static_cast<double>(stats_of(stats, "admission.decide").total_ns) *
                 1e-9);
}

void print_layers(const SpanStats& stats) {
  for (const auto& [name, entry] : stats) {
    double scale = 1e-3;
    std::string unit = "us";
    if (name.rfind("codec.", 0) == 0 || name.rfind("trace.", 0) == 0) {
      scale = 1.0;
      unit = "ns";
    } else if (name.rfind("control.", 0) == 0) {
      scale = 1e-6;
      unit = "ms";
    }
    std::vector<double> scaled;
    scaled.reserve(entry.durations_ns.size());
    for (const double d : entry.durations_ns) scaled.push_back(d * scale);
    std::cout << "layer " << name << ": " << entry.calls << " calls, "
              << describe(summarize(std::move(scaled)), unit) << ", total "
              << static_cast<double>(entry.total_ns) * 1e-9 << " s, self "
              << static_cast<double>(entry.self_ns) * 1e-9 << " s\n";
  }
}

}  // namespace perfbench
