#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics{
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"vms_per_s", "1/s"},
      {"decisions_per_s", "1/s"},
      {"decision_p50_us", "us"},
      {"decision_p99_us", "us"},
      {"throughput_loss_pct", "%"},
      {"effective_cost", "od_core_h"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics{
      {"fleet.place.calls", "count"},
      {"fleet.place.mean_us", "us"},
      {"fleet.place.total_s", "s"},
      {"fleet.flush_views.calls", "count"},
      {"fleet.flush_views.mean_us", "us"},
      {"fleet.flush_views.total_s", "s"},
      {"sharded.place.calls", "count"},
      {"sharded.flush_views.calls", "count"},
      {"sharded.attempts_per_place", "ratio"},
      {"cluster.place.calls", "count"},
      {"cluster.place.mean_us", "us"},
      {"cluster.place.total_s", "s"},
      {"cluster.flush_views.calls", "count"},
      {"cluster.flush_views.mean_us", "us"},
      {"cluster.flush_views.total_s", "s"},
      {"cluster.revoke.calls", "count"},
      {"process.cpu_util", "ratio"},
      {"manager.place_vm.calls", "count"},
      {"manager.place_vm.p50_us", "us"},
      {"manager.place_vm.p99_us", "us"},
      {"manager.remove_vm.calls", "count"},
      {"manager.flush_views.calls", "count"},
      {"manager.revoke_server.calls", "count"},
      {"migration.begin_warning.calls", "count"},
      {"migration.finish_revocation.calls", "count"},
      {"migration.live_share", "ratio"},
      {"control.reoptimize.calls", "count"},
      {"control.moves", "count"},
      {"admission.decide.calls", "count"},
      {"admission.decide.p50_us", "us"},
      {"admission.decide.p99_us", "us"},
      {"admission.decide.total_s", "s"},
      {"admission.drain.calls", "count"},
      {"admission.deferred_share", "ratio"},
      {"admission.queue_peak", "count"},
      {"client.flush.calls", "count"},
      {"server.frames_per_request", "ratio"},
      {"trace.next.calls", "count"},
      {"trace.index_build_s", "s"},
      {"transient.plan_s", "s"},
  };
  return metrics;
}

namespace {

const MetricSpec* find_spec(const std::vector<MetricSpec>& catalog,
                            const std::string& name) {
  for (const MetricSpec& spec : catalog) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Shortest round-trip decimal form of `value` (all its digits).
std::string json_number(double value) {
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    return std::to_string(static_cast<long long>(value));  // counts
  }
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) return "0";
  return std::string(buffer, end);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

}  // namespace

void Result::set(const std::string& name, double value) {
  for (auto& [existing, stored] : values_) {
    if (existing == name) {
      stored = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Result::fail(const std::string& reason) { failures_.push_back(reason); }

void Result::info(const std::string& name, double value,
                  const std::string& unit) {
  std::cout << "info " << name << " = " << json_number(value) << " " << unit
            << "\n";
}

void Result::print(bool trace) {
  const std::vector<MetricSpec>& catalog =
      trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricSpec& spec : catalog) {
    const auto it = std::find_if(values_.begin(), values_.end(),
                                 [&spec](const auto& entry) {
                                   return entry.first == spec.name;
                                 });
    if (it == values_.end()) {
      fail(std::string("metric ") + spec.name + " was not measured");
      continue;
    }
    if (!std::isfinite(it->second)) {
      fail(std::string("metric ") + spec.name + " is not finite");
      continue;
    }
    std::cout << "metric " << spec.name << " = " << json_number(it->second)
              << " " << spec.unit << "\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec.name) + ": {\"value\": " +
               json_number(it->second) + ", \"unit\": " +
               json_string(spec.unit) + "}";
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    if (find_spec(catalog, name) == nullptr) {
      fail("metric " + name + " is not in the catalog");
    }
  }
  for (const std::string& reason : failures_) {
    std::cout << "check FAILED: " << reason << "\n";
  }
  if (failures_.empty()) std::cout << "checks: all passed\n";
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
}

std::string host_record(const RunOptions& options) {
  std::string out = "{";
  out += "\"workload\": " + json_string(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + json_number(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"pinned_cpu\": " + std::to_string(options.cpu);
  out += ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS);
  out += ", \"source\": " + json_string(options.source_id);
  return out + "}";
}

namespace {
cpu_set_t g_original_cpus;
bool g_pinned = false;
}  // namespace

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen = cpu;
  }
  if (chosen < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  g_original_cpus = allowed;
  g_pinned = true;
  return chosen;
}

void unpin_cpus() {
  if (g_pinned) sched_setaffinity(0, sizeof(g_original_cpus), &g_original_cpus);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(steady_now_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench
