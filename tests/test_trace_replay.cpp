// Streaming trace replay (src/trace/replay.hpp): the determinism-pinning
// harness for the bounded-memory megafleet path.
//
//   * A golden end-to-end replay on a small Azure trace pins the full
//     metric surface (admission counters, revocation outcomes, throughput
//     loss, fleet cost) to exact values.
//   * Replays of the same trace must be BIT-IDENTICAL at any
//     DEFLATE_THREADS (the stub index is built in parallel; threads buy
//     wall-clock time, never results) and identical to a record-vector
//     replay of the same trace, in any record order. next() materializes
//     only the record it returns.
//   * Generator property tests pin the (seed, id) keying contract: arrival
//     order is monotone, stubs agree with materialized records, the class
//     mix survives the rate multiplier, and generation order is
//     irrelevant.
//   * Capture-sourced replays round-trip the captured specs and priority
//     classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "scoped_env.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/replay.hpp"

namespace {

using namespace deflate;

// --- golden scenario -------------------------------------------------------

trace::ReplayConfig golden_replay() {
  trace::ReplayConfig replay;
  replay.source = trace::ArrivalSource::Azure;
  replay.azure.vm_count = 800;
  replay.azure.seed = 11;
  replay.azure.duration = sim::SimTime::from_hours(48);
  return replay;
}

/// Market + timed migration + price admission: the config exercises every
/// streaming event source (arrivals, departures, warn/revoke/restore plan
/// events, deferral retries and in-flight cutovers).
simcluster::SimConfig golden_config() {
  simcluster::SimConfig config;
  config.server_count = 30;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.market_enabled = true;
  config.market.seed = 7;
  config.market.revocation.model =
      transient::RevocationModel::TemporallyConstrained;
  config.market.revocation.max_lifetime_hours = 24.0;
  config.market.revocation.warning_hours = 0.5;
  config.migration.model.bandwidth_mib_per_sec = 256.0;
  config.admission.policy = cluster::AdmissionPolicyKind::PriceThreshold;
  config.admission.default_ceiling = 0.28;
  config.admission.max_defer_hours = 4.0;
  return config;
}

simcluster::SimMetrics run_streaming(const trace::ReplayConfig& replay,
                                     std::size_t* peak_active = nullptr) {
  const auto stream = trace::make_arrival_stream(replay);
  simcluster::TraceDrivenSimulator simulator(*stream, golden_config());
  const simcluster::SimMetrics metrics = simulator.run();
  if (peak_active != nullptr) *peak_active = simulator.peak_active_records();
  return metrics;
}

/// Bit-identical comparison across the whole metric surface: counters and
/// doubles compare with EXPECT_EQ — same trace, same event order, same
/// floating-point operations in the same order.
void expect_identical(const simcluster::SimMetrics& a,
                      const simcluster::SimMetrics& b, const char* label) {
  EXPECT_EQ(a.vm_count, b.vm_count) << label;
  EXPECT_EQ(a.deflatable_count, b.deflatable_count) << label;
  EXPECT_EQ(a.rejections, b.rejections) << label;
  EXPECT_EQ(a.preemptions, b.preemptions) << label;
  EXPECT_EQ(a.reclamation_attempts, b.reclamation_attempts) << label;
  EXPECT_EQ(a.reclamation_failures, b.reclamation_failures) << label;
  EXPECT_EQ(a.revocations, b.revocations) << label;
  EXPECT_EQ(a.revocation_migrations, b.revocation_migrations) << label;
  EXPECT_EQ(a.revocation_kills, b.revocation_kills) << label;
  EXPECT_EQ(a.live_migrations, b.live_migrations) << label;
  EXPECT_EQ(a.checkpoint_restores, b.checkpoint_restores) << label;
  EXPECT_EQ(a.checkpoint_kills, b.checkpoint_kills) << label;
  EXPECT_EQ(a.admission_deferrals, b.admission_deferrals) << label;
  EXPECT_EQ(a.admission_expired, b.admission_expired) << label;
  EXPECT_EQ(a.admission_retries, b.admission_retries) << label;
  EXPECT_EQ(a.admission_delay_hours, b.admission_delay_hours) << label;
  EXPECT_EQ(a.unserved_core_hours, b.unserved_core_hours) << label;
  EXPECT_EQ(a.throughput_loss, b.throughput_loss) << label;
  EXPECT_EQ(a.mean_cpu_deflation, b.mean_cpu_deflation) << label;
  EXPECT_EQ(a.migration_downtime_hours, b.migration_downtime_hours) << label;
  EXPECT_EQ(a.achieved_overcommit, b.achieved_overcommit) << label;
  EXPECT_EQ(a.revenue.od_committed_core_hours,
            b.revenue.od_committed_core_hours)
      << label;
  EXPECT_EQ(a.revenue.df_committed_core_hours,
            b.revenue.df_committed_core_hours)
      << label;
  EXPECT_EQ(a.revenue.df_allocated_core_hours,
            b.revenue.df_allocated_core_hours)
      << label;
  EXPECT_EQ(a.cost.total_cost(), b.cost.total_cost()) << label;
}

}  // namespace

// --- golden end-to-end replay ----------------------------------------------

TEST(TraceReplayGolden, StreamingReplayPinsFullMetricSurface) {
  std::size_t peak_active = 0;
  const simcluster::SimMetrics m = run_streaming(golden_replay(), &peak_active);

  // Fleet and admission outcome (exact).
  EXPECT_EQ(m.vm_count, 800U);
  EXPECT_EQ(m.deflatable_count, 393U);
  EXPECT_EQ(m.rejections, 2U);
  EXPECT_EQ(m.preemptions, 0U);
  EXPECT_EQ(m.reclamation_attempts, 4U);
  EXPECT_EQ(m.reclamation_failures, 0U);
  EXPECT_EQ(m.admission_deferrals, 36U);
  EXPECT_EQ(m.admission_expired, 2U);

  // Revocation handling: every revocation absorbed by timed live
  // migration, not one VM killed.
  EXPECT_EQ(m.revocations, 44U);
  EXPECT_EQ(m.revocation_migrations, 89U);
  EXPECT_EQ(m.revocation_kills, 0U);
  EXPECT_EQ(m.live_migrations, 89U);
  EXPECT_EQ(m.checkpoint_restores, 0U);
  EXPECT_EQ(m.checkpoint_kills, 0U);

  // Continuous outcomes (tight tolerances; recompute if the generators or
  // the event loop intentionally change).
  EXPECT_NEAR(m.admission_delay_hours, 34.1508, 0.001);
  EXPECT_DOUBLE_EQ(m.unserved_core_hours, 0.0);
  EXPECT_NEAR(100.0 * m.throughput_loss, 2.8521, 0.001);
  EXPECT_NEAR(100.0 * m.mean_cpu_deflation, 0.4605, 0.001);
  EXPECT_NEAR(m.migration_downtime_hours, 0.004497, 1e-5);
  EXPECT_NEAR(m.cost.total_cost(), 37715.6, 0.5);
  EXPECT_NEAR(m.cost.saving_percent(), 45.43, 0.01);

  // Bounded memory: the streaming run never held more than a fraction of
  // the fleet resident.
  EXPECT_EQ(peak_active, 171U);
}

// --- bit-identical across thread counts -------------------------------------

TEST(TraceReplayParity, ThreadCountNeverChangesResults) {
  const auto run_at = [](const char* threads) {
    const testutil::ScopedEnv env("DEFLATE_THREADS", threads);
    return run_streaming(golden_replay());
  };
  expect_identical(run_at("1"), run_at("4"), "DEFLATE_THREADS=1 vs 4");
}

TEST(TraceReplayParity, NextMaterializesOnlyTheRecordItReturns) {
  const auto records =
      trace::AzureTraceGenerator(golden_replay().azure).generate();
  std::vector<trace::ArrivalStub> stubs;
  for (const trace::VmRecord& record : records) stubs.push_back(record.stub());
  std::size_t calls = 0;
  trace::IndexedArrivalStream stream(std::move(stubs), [&](std::uint64_t id) {
    ++calls;
    return records[static_cast<std::size_t>(id)];
  });
  EXPECT_EQ(calls, 0U);
  for (std::size_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(stream.next().has_value());
    EXPECT_EQ(calls, k);
  }
  stream.reset();
  ASSERT_TRUE(stream.next().has_value());
  EXPECT_EQ(calls, 6U);
}

TEST(TraceReplayParity, ResetStreamReplaysIdentically) {
  const auto stream = trace::make_arrival_stream(golden_replay());
  simcluster::TraceDrivenSimulator first(*stream, golden_config());
  const simcluster::SimMetrics a = first.run();
  stream->reset();
  simcluster::TraceDrivenSimulator second(*stream, golden_config());
  const simcluster::SimMetrics b = second.run();
  expect_identical(a, b, "reset-vs-fresh");
}

TEST(TraceReplayParity, StreamingMatchesMaterializedVectorReplay) {
  const trace::ReplayConfig replay = golden_replay();
  std::size_t streaming_peak = 0;
  const simcluster::SimMetrics s = run_streaming(replay, &streaming_peak);

  const auto records = trace::AzureTraceGenerator(replay.azure).generate();
  simcluster::TraceDrivenSimulator vector_sim(records, golden_config());
  const simcluster::SimMetrics v = vector_sim.run();

  // One event loop and one arrival path: each record moves into its VM's
  // slot on both, so the whole metric surface matches exactly and only
  // the active VMs are resident.
  expect_identical(s, v, "streaming-vs-vector");
  EXPECT_EQ(vector_sim.peak_active_records(), streaming_peak);
}

TEST(TraceReplayParity, RecordVectorOrderNeverChangesResults) {
  auto records = trace::AzureTraceGenerator(golden_replay().azure).generate();
  simcluster::TraceDrivenSimulator sorted(records, golden_config());
  const simcluster::SimMetrics reference = sorted.run();

  std::shuffle(records.begin(), records.end(), std::mt19937{5});
  simcluster::TraceDrivenSimulator shuffled(records, golden_config());
  expect_identical(reference, shuffled.run(), "shuffled records");
}

TEST(TraceReplayParity, DuplicateRecordIdsAreRejected) {
  auto records = trace::AzureTraceGenerator(golden_replay().azure).generate();
  records[7].id = records[3].id;
  EXPECT_THROW(simcluster::TraceDrivenSimulator(records, golden_config()),
               std::invalid_argument);
}

// --- active-VM slots --------------------------------------------------------

namespace {

/// Hands out `records` (already in (start, id) order) as a stream, ids
/// unchecked, so a test can feed the simulator a repeated id.
class ListStream final : public trace::VmArrivalStream {
 public:
  explicit ListStream(std::vector<trace::VmRecord> records)
      : records_(std::move(records)) {
    std::vector<trace::ArrivalStub> stubs;
    for (const trace::VmRecord& record : records_) {
      stubs.push_back(record.stub());
      horizon_ = std::max(horizon_, record.end);
    }
    peak_ = trace::peak_committed(std::move(stubs));
  }
  [[nodiscard]] std::optional<trace::VmRecord> next() override {
    if (cursor_ >= records_.size()) return std::nullopt;
    return records_[cursor_++];
  }
  void reset() override { cursor_ = 0; }
  [[nodiscard]] std::size_t size() const noexcept override {
    return records_.size();
  }
  [[nodiscard]] sim::SimTime horizon() const noexcept override {
    return horizon_;
  }
  [[nodiscard]] res::ResourceVector peak_committed() const noexcept override {
    return peak_;
  }

 private:
  std::vector<trace::VmRecord> records_;
  std::size_t cursor_ = 0;
  sim::SimTime horizon_;
  res::ResourceVector peak_;
};

/// Relabels every record of `inner` through `relabel`.
class RelabelledStream final : public trace::VmArrivalStream {
 public:
  RelabelledStream(trace::VmArrivalStream& inner,
                   std::uint64_t (*relabel)(std::uint64_t))
      : inner_(inner), relabel_(relabel) {}
  [[nodiscard]] std::optional<trace::VmRecord> next() override {
    std::optional<trace::VmRecord> record = inner_.next();
    if (record) record->id = relabel_(record->id);
    return record;
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::size_t size() const noexcept override {
    return inner_.size();
  }
  [[nodiscard]] sim::SimTime horizon() const noexcept override {
    return inner_.horizon();
  }
  [[nodiscard]] res::ResourceVector peak_committed() const noexcept override {
    return inner_.peak_committed();
  }

 private:
  trace::VmArrivalStream& inner_;
  std::uint64_t (*relabel_)(std::uint64_t);
};

/// A strictly increasing map onto sparse ids above 2^32, so (start, id)
/// order, and with it every event's order, is kept.
std::uint64_t sparse_id(std::uint64_t id) {
  constexpr std::uint64_t kStride = 1'000'003;
  return (std::uint64_t{1} << 32) + id * kStride + (id * 7'919) % kStride;
}

trace::VmRecord small_vm(std::uint64_t id, double start_h, double end_h,
                         hv::WorkloadClass workload) {
  trace::VmRecord record;
  record.id = id;
  record.workload = workload;
  record.vcpus = 4;
  record.memory_mib = 8192.0;
  record.start = sim::SimTime::from_hours(start_h);
  record.end = sim::SimTime::from_hours(end_h);
  const auto samples = static_cast<std::size_t>((end_h - start_h) * 12.0);
  std::vector<float> cpu(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    cpu[i] = 0.2F + 0.1F * static_cast<float>(i % 7);
  }
  record.cpu = trace::UtilizationSeries(std::move(cpu));
  return record;
}

simcluster::SimMetrics run_list(std::vector<trace::VmRecord> records) {
  ListStream stream(std::move(records));
  simcluster::SimConfig config;
  config.server_count = 2;
  simcluster::TraceDrivenSimulator simulator(stream, config);
  return simulator.run();
}

}  // namespace

TEST(TraceReplaySlots, DuplicateActiveIdInStreamThrows) {
  const auto interactive = hv::WorkloadClass::Interactive;
  EXPECT_THROW(run_list({small_vm(5, 0.0, 4.0, interactive),
                         small_vm(5, 1.0, 3.0, interactive)}),
               std::runtime_error);
  // The repeat comes after another arrival, still before VM 9 departs.
  EXPECT_THROW(run_list({small_vm(9, 0.0, 4.0, hv::WorkloadClass::Unknown),
                         small_vm(8, 3.0, 5.0, interactive),
                         small_vm(9, 3.5, 6.0, interactive)}),
               std::runtime_error);
}

TEST(TraceReplaySlots, IdReusedAfterDepartureIsAccepted) {
  const auto interactive = hv::WorkloadClass::Interactive;
  const auto batch = hv::WorkloadClass::DelayInsensitive;
  // VM 5 departs at 4 h and its id arrives again at 4 h (departures rank
  // ahead of arrivals) and at 9 h; the run must equal one where each of
  // those VMs has a fresh id that keeps the same event order.
  const simcluster::SimMetrics reused =
      run_list({small_vm(5, 0.0, 4.0, interactive),
                small_vm(7, 1.0, 8.0, batch),
                small_vm(5, 4.0, 6.0, interactive),
                small_vm(5, 9.0, 10.0, batch)});
  const simcluster::SimMetrics fresh =
      run_list({small_vm(5, 0.0, 4.0, interactive),
                small_vm(7, 1.0, 8.0, batch),
                small_vm(11, 4.0, 6.0, interactive),
                small_vm(12, 9.0, 10.0, batch)});
  EXPECT_EQ(reused.vm_count, 4U);
  EXPECT_EQ(reused.deflatable_count, 2U);
  expect_identical(fresh, reused, "reused-vs-fresh ids");
  EXPECT_TRUE(fresh == reused);
}

TEST(TraceReplaySlots, SparseIdsAboveTwoToThe32ReplayIdentically) {
  // Stream constructor: the golden stream, relabelled on the fly.
  {
    const auto dense_stream = trace::make_arrival_stream(golden_replay());
    simcluster::TraceDrivenSimulator dense(*dense_stream, golden_config());
    const simcluster::SimMetrics a = dense.run();
    const auto inner = trace::make_arrival_stream(golden_replay());
    RelabelledStream sparse_stream(*inner, sparse_id);
    simcluster::TraceDrivenSimulator sparse(sparse_stream, golden_config());
    const simcluster::SimMetrics b = sparse.run();
    expect_identical(a, b, "stream: dense-vs-sparse ids");
    EXPECT_TRUE(a == b);
    EXPECT_EQ(dense.peak_active_records(), sparse.peak_active_records());
    // The golden scenario has revocations, timed migration and deferrals.
    EXPECT_GT(b.live_migrations, 0U);
    EXPECT_GT(b.admission_deferrals, 0U);
  }
  // Record-vector constructor.
  {
    auto records = trace::AzureTraceGenerator(golden_replay().azure).generate();
    simcluster::TraceDrivenSimulator dense(records, golden_config());
    const simcluster::SimMetrics a = dense.run();
    for (trace::VmRecord& record : records) record.id = sparse_id(record.id);
    simcluster::TraceDrivenSimulator sparse(std::move(records), golden_config());
    const simcluster::SimMetrics b = sparse.run();
    expect_identical(a, b, "vector: dense-vs-sparse ids");
    EXPECT_TRUE(a == b);
  }
}

// --- bounded memory ---------------------------------------------------------

TEST(TraceReplayMemory, ActiveSetStaysFarBelowFleetSize) {
  std::size_t peak_active = 0;
  run_streaming(golden_replay(), &peak_active);
  const auto stream = trace::make_arrival_stream(golden_replay());
  EXPECT_GT(peak_active, 0U);
  // The resident set is the *concurrent* fleet, not the trace: on this
  // 48-hour trace with heavy-tailed lifetimes it stays well under half.
  EXPECT_LT(peak_active, stream->size() / 2);
}

// --- generator properties ---------------------------------------------------

TEST(TraceReplayProperties, ArrivalsAreMonotoneAndMatchStubs) {
  for (const auto source :
       {trace::ArrivalSource::Azure, trace::ArrivalSource::Alibaba}) {
    trace::ReplayConfig replay = golden_replay();
    replay.source = source;
    replay.alibaba.containers.container_count = 400;
    const auto stream = trace::make_arrival_stream(replay);
    const auto* indexed =
        dynamic_cast<const trace::IndexedArrivalStream*>(stream.get());
    ASSERT_NE(indexed, nullptr);

    sim::SimTime last_start;
    std::size_t i = 0;
    for (auto record = stream->next(); record.has_value();
         record = stream->next(), ++i) {
      ASSERT_LT(i, indexed->stubs().size());
      const trace::ArrivalStub& stub = indexed->stubs()[i];
      // The stub is the record's header, field for field.
      EXPECT_EQ(record->id, stub.id);
      EXPECT_EQ(record->start, stub.start);
      EXPECT_EQ(record->end, stub.end);
      EXPECT_EQ(record->vcpus, stub.vcpus);
      EXPECT_EQ(record->memory_mib, stub.memory_mib);
      // Monotone arrivals, end after start, at least one sample.
      EXPECT_GE(record->start, last_start);
      EXPECT_GE(record->end, record->start);
      EXPECT_GE(record->cpu.samples().size(), 1U);
      last_start = record->start;
    }
    EXPECT_EQ(i, stream->size());
  }
}

TEST(TraceReplayProperties, ResetReplaysTheIdenticalSequence) {
  trace::ReplayConfig replay = golden_replay();
  replay.azure.vm_count = 200;
  const auto stream = trace::make_arrival_stream(replay);
  std::vector<trace::VmRecord> first;
  for (auto r = stream->next(); r.has_value(); r = stream->next()) {
    first.push_back(std::move(*r));
  }
  stream->reset();
  std::size_t i = 0;
  for (auto r = stream->next(); r.has_value(); r = stream->next(), ++i) {
    ASSERT_LT(i, first.size());
    EXPECT_EQ(r->id, first[i].id);
    EXPECT_EQ(r->start, first[i].start);
    EXPECT_EQ(r->cpu.samples(), first[i].cpu.samples());
  }
  EXPECT_EQ(i, first.size());
}

TEST(TraceReplayProperties, RecordVectorSizingMatchesIndexedStream) {
  // The record-vector simulator sizes its run with the horizon_of and
  // peak_committed statics; in any record order they must agree with the
  // stub index of the stream over the same trace.
  trace::ReplayConfig replay = golden_replay();
  replay.azure.vm_count = 300;
  const auto indexed = trace::make_arrival_stream(replay);
  auto records = trace::AzureTraceGenerator(replay.azure).generate();
  std::reverse(records.begin(), records.end());

  EXPECT_EQ(records.size(), indexed->size());
  EXPECT_EQ(simcluster::TraceDrivenSimulator::horizon_of(records),
            indexed->horizon());
  const res::ResourceVector peak =
      simcluster::TraceDrivenSimulator::peak_committed(records);
  for (const res::Resource r : {res::Resource::Cpu, res::Resource::Memory}) {
    EXPECT_EQ(peak[r], indexed->peak_committed()[r]);
  }
}

TEST(TraceReplayProperties, KeyedGenerationIsIndependentOfOrder) {
  trace::AzureTraceConfig config;
  config.vm_count = 64;
  config.seed = 23;
  config.duration = sim::SimTime::from_hours(24);
  const trace::AzureTraceGenerator generator(config);

  std::vector<std::uint64_t> ids(config.vm_count);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::shuffle(ids.begin(), ids.end(), std::mt19937{99});

  for (const std::uint64_t id : ids) {
    const trace::ArrivalStub stub = generator.arrival_of(id);
    const trace::VmRecord record = generator.generate_vm(id);
    // arrival_of is the header projection of generate_vm — always, in any
    // evaluation order (each id owns its keyed stream).
    EXPECT_EQ(stub.id, record.id);
    EXPECT_EQ(stub.start, record.start);
    EXPECT_EQ(stub.end, record.end);
    EXPECT_EQ(stub.vcpus, record.vcpus);
    EXPECT_EQ(stub.memory_mib, record.memory_mib);
  }
}

namespace {

struct MixStats {
  double interactive_share = 0.0;
  double mean_lifetime_hours = 0.0;
  double mean_vcpus = 0.0;
};

MixStats mix_of(trace::VmArrivalStream& stream) {
  MixStats mix;
  std::size_t n = 0;
  for (auto r = stream.next(); r.has_value(); r = stream.next(), ++n) {
    if (r->workload == hv::WorkloadClass::Interactive) {
      mix.interactive_share += 1.0;
    }
    mix.mean_lifetime_hours += r->lifetime().hours();
    mix.mean_vcpus += r->vcpus;
  }
  mix.interactive_share /= static_cast<double>(n);
  mix.mean_lifetime_hours /= static_cast<double>(n);
  mix.mean_vcpus /= static_cast<double>(n);
  return mix;
}

}  // namespace

TEST(TraceReplayProperties, RateMultiplierPreservesClassAndLifetimeMix) {
  for (const auto source :
       {trace::ArrivalSource::Azure, trace::ArrivalSource::Alibaba}) {
    trace::ReplayConfig base = golden_replay();
    base.source = source;
    base.azure.vm_count = 2000;
    base.alibaba.containers.container_count = 2000;
    trace::ReplayConfig scaled = base;
    scaled.rate_multiplier = 3.0;

    const auto base_stream = trace::make_arrival_stream(base);
    const auto scaled_stream = trace::make_arrival_stream(scaled);
    EXPECT_EQ(scaled_stream->size(), 3 * base_stream->size());
    // Same horizon (within the stochastic max-of-ends): more VMs in the
    // same span = higher offered rate.
    EXPECT_NEAR(scaled_stream->horizon().hours(),
                base_stream->horizon().hours(), 0.5);

    const MixStats a = mix_of(*base_stream);
    const MixStats b = mix_of(*scaled_stream);
    // Fresh ids draw fresh keyed streams from the same distributions: the
    // mixes agree within sampling noise.
    EXPECT_NEAR(a.interactive_share, b.interactive_share, 0.05);
    EXPECT_NEAR(a.mean_lifetime_hours / b.mean_lifetime_hours, 1.0, 0.15);
    EXPECT_NEAR(a.mean_vcpus / b.mean_vcpus, 1.0, 0.15);
  }
}

TEST(TraceReplayProperties, DurationScaleStretchesHorizonAtConstantRate) {
  trace::ReplayConfig base = golden_replay();
  base.azure.vm_count = 1000;
  trace::ReplayConfig stretched = base;
  stretched.duration_scale = 2.0;

  const auto base_stream = trace::make_arrival_stream(base);
  const auto stretched_stream = trace::make_arrival_stream(stretched);
  // Twice the horizon at twice the population = constant arrival rate.
  EXPECT_EQ(stretched_stream->size(), 2 * base_stream->size());
  EXPECT_NEAR(stretched_stream->horizon().hours(),
              2.0 * base_stream->horizon().hours(), 1.0);
}

TEST(TraceReplayProperties, InvalidScalingIsRejected) {
  trace::ReplayConfig replay = golden_replay();
  replay.rate_multiplier = 0.0;
  EXPECT_THROW((void)trace::make_arrival_stream(replay), std::invalid_argument);
  replay = golden_replay();
  replay.duration_scale = -1.0;
  EXPECT_THROW((void)trace::make_arrival_stream(replay), std::invalid_argument);
}

// --- capture-sourced replay -------------------------------------------------

namespace {

class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Records a small admission session through the real service stack so the
/// capture file is exactly what `deflated --capture` writes.
void record_capture(const std::string& path, std::size_t requests) {
  net::ServiceConfig config;
  config.server_count = 8;
  config.capture_path = path;
  net::Server server(config);
  ASSERT_TRUE(server.start());
  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());
  for (std::size_t i = 0; i < requests; ++i) {
    hv::VmSpec spec;
    spec.id = i + 1;
    spec.name = "vm-" + std::to_string(i + 1);
    spec.vcpus = 1 + static_cast<int>(i % 4);
    spec.memory_mib = spec.vcpus * 2048.0;
    spec.deflatable = (i % 5) != 0;
    spec.priority = spec.deflatable ? 0.2 * (1 + static_cast<double>(i % 4))
                                    : 1.0;
    client->submit(cluster::AdmissionRequest::from_spec(
        spec, sim::SimTime::from_hours(0.25 * static_cast<double>(i))));
  }
  ASSERT_TRUE(client->flush());
  server.stop();
}

}  // namespace

TEST(TraceReplayCapture, CapturedRequestsRoundTripAsArrivals) {
  TempFile capture("test_trace_replay_capture.bin");
  record_capture(capture.path(), 24);

  trace::ReplayConfig replay;
  replay.source = trace::ArrivalSource::Capture;
  replay.capture.path = capture.path();
  const auto stream = trace::make_arrival_stream(replay);
  EXPECT_EQ(stream->size(), 24U);

  std::size_t deflatable = 0;
  for (auto r = stream->next(); r.has_value(); r = stream->next()) {
    const hv::VmSpec spec = r->to_spec();
    EXPECT_GE(r->end, r->start);
    EXPECT_GE(r->cpu.samples().size(), 1U);
    if (r->deflatable()) {
      ++deflatable;
      // The flat series level round-trips the captured priority class
      // through priority_from_p95 (0.2/0.4/0.6/0.8 buckets).
      EXPECT_NEAR(spec.priority,
                  0.2 * (1.0 + std::floor(spec.priority / 0.2 - 0.999)), 0.3);
      EXPECT_GT(spec.priority, 0.0);
    } else {
      EXPECT_EQ(spec.priority, 1.0);
    }
  }
  // 24 requests, every 5th non-deflatable (i % 5 == 0 -> 5 of 24).
  EXPECT_EQ(deflatable, 19U);
}

TEST(TraceReplayCapture, RateMultiplierReplicatesWithFreshIds) {
  TempFile capture("test_trace_replay_capture_rate.bin");
  record_capture(capture.path(), 10);

  trace::ReplayConfig replay;
  replay.source = trace::ArrivalSource::Capture;
  replay.capture.path = capture.path();
  replay.rate_multiplier = 2.5;
  const auto stream = trace::make_arrival_stream(replay);
  EXPECT_EQ(stream->size(), 25U);

  std::vector<std::uint64_t> seen;
  for (auto r = stream->next(); r.has_value(); r = stream->next()) {
    seen.push_back(r->id);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen.size(), 25U);
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "replicated arrivals must carry fresh ids";
}

TEST(TraceReplayCapture, MissingFileThrowsCleanly) {
  trace::ReplayConfig replay;
  replay.source = trace::ArrivalSource::Capture;
  replay.capture.path = "no/such/capture.bin";
  EXPECT_THROW((void)trace::make_arrival_stream(replay), std::runtime_error);
}
