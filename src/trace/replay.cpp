#include "trace/replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <utility>

#include "net/capture.hpp"
#include "net/codec.hpp"
#include "util/rng.hpp"
#include "util/parallel.hpp"

namespace deflate::trace {

namespace {

/// (cpu, memory) a stub commits while running — placement ignores I/O
/// bandwidth (VmRecord::to_spec zeroes it).
res::ResourceVector stub_committed(const ArrivalStub& stub) noexcept {
  return {static_cast<double>(stub.vcpus), stub.memory_mib, 0.0, 0.0};
}

bool arrives_before(const ArrivalStub& a, const ArrivalStub& b) noexcept {
  if (a.start != b.start) return a.start < b.start;
  return a.id < b.id;
}

/// Peak sweep over an index sorted by (start, id): arrivals in start
/// order, with a min-heap retiring departures before each arrival
/// (departures at the same instant free capacity first).
res::ResourceVector sweep_peak(const std::vector<ArrivalStub>& sorted) {
  using Departure = std::pair<sim::SimTime, res::ResourceVector>;
  const auto later = [](const Departure& a, const Departure& b) {
    return a.first > b.first;
  };
  std::priority_queue<Departure, std::vector<Departure>, decltype(later)>
      departures(later);
  res::ResourceVector current;
  res::ResourceVector peak;
  for (const ArrivalStub& stub : sorted) {
    while (!departures.empty() && departures.top().first <= stub.start) {
      current -= departures.top().second;
      departures.pop();
    }
    const res::ResourceVector committed = stub_committed(stub);
    current += committed;
    departures.push({stub.end, committed});
    peak = peak.elementwise_max(current);
  }
  return peak;
}

sim::SimTime latest_end(const std::vector<ArrivalStub>& stubs) noexcept {
  sim::SimTime horizon;
  for (const ArrivalStub& stub : stubs) horizon = std::max(horizon, stub.end);
  return horizon;
}

void check_scaling(const ReplayConfig& config) {
  if (!(config.rate_multiplier > 0.0) || !(config.duration_scale > 0.0)) {
    throw std::invalid_argument(
        "replay: rate_multiplier and duration_scale must be positive");
  }
}

std::size_t scaled_count(std::size_t base, double factor) {
  const auto scaled = std::llround(static_cast<double>(base) * factor);
  return scaled > 0 ? static_cast<std::size_t>(scaled) : 1;
}

// --- Azure ------------------------------------------------------------------

AzureTraceConfig scaled_azure(const ReplayConfig& config) {
  AzureTraceConfig azure = config.azure;
  azure.duration = sim::SimTime::from_micros(static_cast<std::int64_t>(
      static_cast<double>(azure.duration.micros()) * config.duration_scale));
  // Rate scales VMs per unit time; duration scaling adds proportionally
  // more VMs so the offered rate stays constant over the longer horizon.
  azure.vm_count = scaled_count(
      azure.vm_count, config.rate_multiplier * config.duration_scale);
  return azure;
}

std::unique_ptr<VmArrivalStream> make_azure_stream(const ReplayConfig& config) {
  const AzureTraceConfig azure = scaled_azure(config);
  AzureTraceGenerator generator(azure);
  std::vector<ArrivalStub> stubs(azure.vm_count);
  util::parallel_for(azure.vm_count, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      stubs[i] = generator.arrival_of(static_cast<std::uint64_t>(i));
    }
  });
  return std::make_unique<IndexedArrivalStream>(
      std::move(stubs),
      [generator](std::uint64_t id) { return generator.generate_vm(id); });
}

// --- Alibaba ----------------------------------------------------------------

/// Stream-id salt for the adapter's own draws, distinct from the container
/// generator's (seed ^ 0xa11baba) so the container series stay
/// bit-identical to the standalone AlibabaTraceGenerator.
constexpr std::uint64_t kAlibabaAdapterSalt = 0x5ba17e91accaULL;

/// Container-shaped VM size menu: (vcpus, memory GiB, weight). Alibaba
/// containers skew smaller than Azure VMs.
struct ContainerSize {
  int vcpus;
  double memory_gib;
  double weight;
};
constexpr std::array<ContainerSize, 5> kContainerMenu{{
    {1, 2.0, 0.30}, {2, 4.0, 0.30}, {4, 8.0, 0.22},
    {8, 16.0, 0.12}, {16, 32.0, 0.06},
}};

struct AlibabaDraws {
  hv::WorkloadClass workload = hv::WorkloadClass::Unknown;
  int vcpus = 1;
  double memory_gib = 2.0;
  double start_hours = 0.0;
  double lifetime_hours = 1.0;
  double cpu_base = 0.1;
};

/// The adapter's arrival-side draws, keyed by (seed, id): the stub and the
/// materializer both call this, so they always agree.
AlibabaDraws draw_alibaba(const AlibabaReplayConfig& config, std::uint64_t id) {
  util::Rng rng =
      util::Rng::keyed(config.containers.seed ^ kAlibabaAdapterSalt, id);
  AlibabaDraws d;
  const double class_draw = rng.u01();
  if (class_draw < config.interactive_share) {
    d.workload = hv::WorkloadClass::Interactive;
  } else if (class_draw <
             config.interactive_share + config.delay_insensitive_share) {
    d.workload = hv::WorkloadClass::DelayInsensitive;
  } else {
    d.workload = hv::WorkloadClass::Unknown;
  }
  std::array<double, kContainerMenu.size()> weights{};
  for (std::size_t i = 0; i < kContainerMenu.size(); ++i) {
    weights[i] = kContainerMenu[i].weight;
  }
  const ContainerSize& size = kContainerMenu[rng.weighted_index(weights)];
  d.vcpus = size.vcpus;
  d.memory_gib = size.memory_gib;
  const double min_hours = config.min_lifetime.hours();
  const double max_hours = config.containers.duration.hours();
  d.lifetime_hours =
      std::min(max_hours, rng.bounded_pareto(min_hours, max_hours, 1.2));
  d.start_hours = rng.uniform(0.0, max_hours - d.lifetime_hours);
  // Services idle low; batch containers run hotter (§3.2.2's mix).
  d.cpu_base = d.workload == hv::WorkloadClass::Interactive
                   ? rng.logit_normal(-2.0, 0.5)
                   : rng.logit_normal(-1.2, 0.5);
  return d;
}

VmRecord materialize_alibaba(const AlibabaReplayConfig& config,
                             std::uint64_t id) {
  const AlibabaDraws d = draw_alibaba(config, id);
  const AlibabaTraceGenerator generator(config.containers);
  const ContainerRecord container = generator.generate_container(id);

  VmRecord record;
  record.id = id;
  record.workload = d.workload;
  record.vcpus = d.vcpus;
  record.memory_mib = d.memory_gib * 1024.0;
  record.disk_bw_mbps = 50.0 + 20.0 * d.vcpus;
  record.net_bw_mbps = 500.0 + 125.0 * d.vcpus;
  record.start = sim::SimTime::from_hours(d.start_hours);
  record.end = sim::SimTime::from_hours(d.start_hours + d.lifetime_hours);

  // The container trace has no CPU series; synthesize one from the
  // bandwidth series, which track request load (memory *usage* does not —
  // that is Fig. 9's point). Offset by the arrival so co-arriving
  // containers do not share a phase.
  const auto& net = container.net_bw.samples();
  const auto& disk = container.disk_bw.samples();
  const auto& membw = container.memory_bw.samples();
  const std::size_t period = std::max<std::size_t>(1, net.size());
  const auto samples = static_cast<std::size_t>(
      std::max<std::int64_t>(1, record.lifetime().micros() /
                                    kTraceInterval.micros()));
  const auto offset = static_cast<std::size_t>(
      std::max(0.0, d.start_hours) * 12.0);  // 5-minute intervals per hour
  std::vector<float> cpu;
  cpu.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t j = (offset + i) % period;
    const double u = d.cpu_base + 2.0 * net[j % net.size()] +
                     1.5 * disk[j % disk.size()] + 60.0 * membw[j % membw.size()];
    cpu.push_back(static_cast<float>(std::clamp(u, 0.0, 1.0)));
  }
  record.cpu = UtilizationSeries(std::move(cpu));
  return record;
}

std::unique_ptr<VmArrivalStream> make_alibaba_stream(
    const ReplayConfig& config) {
  AlibabaReplayConfig alibaba = config.alibaba;
  alibaba.containers.duration =
      sim::SimTime::from_micros(static_cast<std::int64_t>(
          static_cast<double>(alibaba.containers.duration.micros()) *
          config.duration_scale));
  alibaba.containers.container_count =
      scaled_count(alibaba.containers.container_count,
                   config.rate_multiplier * config.duration_scale);

  const std::size_t n = alibaba.containers.container_count;
  std::vector<ArrivalStub> stubs(n);
  util::parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto id = static_cast<std::uint64_t>(i);
      const AlibabaDraws d = draw_alibaba(alibaba, id);
      stubs[i] = {id, sim::SimTime::from_hours(d.start_hours),
                  sim::SimTime::from_hours(d.start_hours + d.lifetime_hours),
                  d.vcpus, d.memory_gib * 1024.0};
    }
  });
  return std::make_unique<IndexedArrivalStream>(
      std::move(stubs),
      [alibaba](std::uint64_t id) { return materialize_alibaba(alibaba, id); });
}

// --- Capture ----------------------------------------------------------------

/// Flat-series level that round-trips a captured priority class through
/// VmRecord::priority_from_p95 (each level sits inside the p95 bucket the
/// priority came from).
double flat_level_for_priority(double priority, bool deflatable) noexcept {
  if (!deflatable) return 0.5;
  if (priority <= 0.25) return 0.2;  // Low bucket: p95 < 0.33
  if (priority <= 0.45) return 0.5;  // Moderate: [0.33, 0.66)
  if (priority <= 0.65) return 0.7;  // High: [0.66, 0.80)
  return 0.9;                        // VeryHigh: >= 0.80
}

[[noreturn]] void capture_error(const std::string& path,
                                const std::string& what) {
  throw std::runtime_error("replay capture '" + path + "': " + what);
}

/// The AdmissionRequests of a capture file, in captured order. Structural
/// defects come from net::CaptureReader; every defect throws, so a
/// partial fleet is never returned.
std::vector<cluster::AdmissionRequest> read_capture_requests(
    const std::string& path) {
  net::CaptureReader reader(path);
  std::vector<cluster::AdmissionRequest> requests;
  net::CaptureRecord record;
  while (reader.next(record)) {
    const auto at_record = [&](const char* what) {
      capture_error(path,
                    "record " + std::to_string(record.index) + ": " + what);
    };
    if (const auto* request =
            std::get_if<net::AdmissionRequestMsg>(&record.message)) {
      // Semantic validation: the codec only checks structure, but a bit
      // flip inside a payload can decode into an impossible request (a
      // negative arrival time, zero cores). Reject those here — a stream
      // must never carry an invalid VM.
      const cluster::AdmissionRequest& r = request->request;
      if (r.arrival < sim::SimTime{}) at_record("negative arrival time");
      if (r.spec.vcpus < 1) at_record("non-positive vcpus");
      if (!std::isfinite(r.spec.memory_mib) || r.spec.memory_mib < 0.0) {
        at_record("invalid memory size");
      }
      if (!std::isfinite(r.spec.priority)) at_record("non-finite priority");
      requests.push_back(r);
    } else if (!std::holds_alternative<net::AdmissionDecisionMsg>(
                   record.message)) {
      at_record("unexpected frame type");
    }
  }
  if (!reader.error().empty()) capture_error(path, reader.error());
  if (requests.empty()) capture_error(path, "no admission requests");
  return requests;
}

std::unique_ptr<VmArrivalStream> make_capture_stream(
    const ReplayConfig& config) {
  const CaptureReplayConfig& capture = config.capture;
  const std::vector<cluster::AdmissionRequest> requests =
      read_capture_requests(capture.path);

  // rate_multiplier replays the captured sequence with remapped ids until
  // round(n * multiplier) arrivals exist; duration_scale stretches the
  // captured arrival times.
  const std::size_t total =
      scaled_count(requests.size(), config.rate_multiplier);
  const double min_hours = capture.min_lifetime.hours();
  const double max_hours =
      std::max(min_hours + 1e-9, capture.max_lifetime.hours());

  struct CaptureVm {
    hv::VmSpec spec;
    sim::SimTime start;
    sim::SimTime end;
  };
  auto vms = std::make_shared<std::vector<CaptureVm>>();
  vms->reserve(total);
  std::vector<ArrivalStub> stubs;
  stubs.reserve(total);
  for (std::size_t k = 0; k < total; ++k) {
    const cluster::AdmissionRequest& base = requests[k % requests.size()];
    CaptureVm vm;
    vm.spec = base.spec;
    vm.spec.id = static_cast<std::uint64_t>(k);  // replicas need fresh ids
    vm.start = sim::SimTime::from_micros(static_cast<std::int64_t>(
        static_cast<double>(base.arrival.micros()) * config.duration_scale));
    // The capture has no departures: synthesize a keyed heavy-tailed
    // lifetime, a pure function of (seed, index).
    util::Rng rng = util::Rng::keyed(capture.seed, vm.spec.id);
    const double lifetime_hours = std::min(
        max_hours, rng.bounded_pareto(min_hours, max_hours, 1.2));
    vm.end = vm.start + sim::SimTime::from_hours(lifetime_hours);
    stubs.push_back(
        {vm.spec.id, vm.start, vm.end, vm.spec.vcpus, vm.spec.memory_mib});
    vms->push_back(std::move(vm));
  }

  auto materialize = [vms](std::uint64_t id) {
    const CaptureVm& vm = (*vms)[static_cast<std::size_t>(id)];
    VmRecord record;
    record.id = vm.spec.id;
    // to_spec() re-derives deflatability from the class label, so force
    // the label consistent with the captured deflatable flag.
    record.workload = vm.spec.deflatable ? hv::WorkloadClass::Interactive
                      : vm.spec.workload == hv::WorkloadClass::Interactive
                          ? hv::WorkloadClass::Unknown
                          : vm.spec.workload;
    record.vcpus = vm.spec.vcpus;
    record.memory_mib = vm.spec.memory_mib;
    record.disk_bw_mbps = vm.spec.disk_bw_mbps;
    record.net_bw_mbps = vm.spec.net_bw_mbps;
    record.start = vm.start;
    record.end = vm.end;
    const auto samples = static_cast<std::size_t>(
        std::max<std::int64_t>(1, record.lifetime().micros() /
                                      kTraceInterval.micros()));
    record.cpu = UtilizationSeries(std::vector<float>(
        samples, static_cast<float>(flat_level_for_priority(
                     vm.spec.priority, vm.spec.deflatable))));
    return record;
  };
  return std::make_unique<IndexedArrivalStream>(std::move(stubs),
                                                std::move(materialize));
}

}  // namespace

const char* arrival_source_name(ArrivalSource s) noexcept {
  switch (s) {
    case ArrivalSource::Azure: return "azure";
    case ArrivalSource::Alibaba: return "alibaba";
    case ArrivalSource::Capture: return "capture";
  }
  return "?";
}

IndexedArrivalStream::IndexedArrivalStream(std::vector<ArrivalStub> stubs,
                                           Materializer materialize)
    : stubs_(std::move(stubs)), materialize_(std::move(materialize)) {
  std::sort(stubs_.begin(), stubs_.end(), arrives_before);
  horizon_ = latest_end(stubs_);
  peak_ = sweep_peak(stubs_);
}

std::optional<VmRecord> IndexedArrivalStream::next() {
  if (cursor_ >= stubs_.size()) return std::nullopt;
  return materialize_(stubs_[cursor_++].id);
}

void IndexedArrivalStream::reset() { cursor_ = 0; }

res::ResourceVector peak_committed(std::vector<ArrivalStub> stubs) {
  // A record-vector simulator hands over stubs it has already sorted; on
  // any other input is_sorted stops at the first inversion.
  if (!std::is_sorted(stubs.begin(), stubs.end(), arrives_before)) {
    std::sort(stubs.begin(), stubs.end(), arrives_before);
  }
  return sweep_peak(stubs);
}

std::unique_ptr<VmArrivalStream> make_arrival_stream(
    const ReplayConfig& config) {
  check_scaling(config);
  switch (config.source) {
    case ArrivalSource::Azure: return make_azure_stream(config);
    case ArrivalSource::Alibaba: return make_alibaba_stream(config);
    case ArrivalSource::Capture: return make_capture_stream(config);
  }
  throw std::invalid_argument("replay: unknown arrival source");
}

std::size_t servers_for_overcommit(const VmArrivalStream& stream,
                                   const res::ResourceVector& server_capacity,
                                   double overcommit) {
  return servers_for_overcommit(stream.peak_committed(), server_capacity,
                                overcommit);
}

std::size_t servers_for_overcommit(const res::ResourceVector& peak,
                                   const res::ResourceVector& server_capacity,
                                   double overcommit) {
  double servers = 1.0;
  for (const res::Resource r : {res::Resource::Cpu, res::Resource::Memory}) {
    if (server_capacity[r] > 0.0) {
      servers = std::max(
          servers, peak[r] / (server_capacity[r] * (1.0 + overcommit)));
    }
  }
  return static_cast<std::size_t>(std::ceil(servers));
}

}  // namespace deflate::trace
