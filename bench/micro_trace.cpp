// Micro-benchmark: synthetic trace generation rate (series samples per
// second), the feasibility statistic kernel, the streaming replay path
// (arrival-stub indexing and one-record-per-next() delivery) and the peak
// sweep that sizes a fleet.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "trace/alibaba.hpp"
#include "trace/azure.hpp"
#include "trace/replay.hpp"

static void bench_azure_generate_vm(benchmark::State& state) {
  using namespace deflate::trace;
  AzureTraceConfig config;
  config.vm_count = 1;
  config.seed = 3;
  config.duration = deflate::sim::SimTime::from_hours(72);
  const AzureTraceGenerator gen(config);
  std::uint64_t id = 0;
  std::int64_t samples = 0;
  for (auto _ : state) {
    const VmRecord record = gen.generate_vm(id++ % 1000);
    samples += static_cast<std::int64_t>(record.cpu.size());
    benchmark::DoNotOptimize(record);
  }
  // Items are series samples: the diurnal kernel's per-sample cost.
  state.SetItemsProcessed(samples);
}
BENCHMARK(bench_azure_generate_vm);

static void bench_alibaba_generate_container(benchmark::State& state) {
  using namespace deflate::trace;
  AlibabaTraceConfig config;
  config.duration = deflate::sim::SimTime::from_hours(24);
  const AlibabaTraceGenerator gen(config);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate_container(id++ % 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bench_alibaba_generate_container);

static void bench_fraction_above(benchmark::State& state) {
  using namespace deflate::trace;
  AzureTraceConfig config;
  config.vm_count = 1;
  config.seed = 9;
  config.duration = deflate::sim::SimTime::from_hours(72);
  const auto record = AzureTraceGenerator(config).generate_vm(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record.cpu.fraction_above(0.5));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(record.cpu.size()));
}
BENCHMARK(bench_fraction_above);

// Stub projection: the O(1) header-only draw the streaming index is built
// from — the reason indexing a multi-million-VM trace is cheap.
static void bench_azure_arrival_stub(benchmark::State& state) {
  using namespace deflate::trace;
  AzureTraceConfig config;
  config.vm_count = 1;
  config.seed = 3;
  config.duration = deflate::sim::SimTime::from_hours(72);
  const AzureTraceGenerator gen(config);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.arrival_of(id++ % 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bench_azure_arrival_stub);

// End-to-end streaming delivery rate: each next() materializes one record,
// in (start, id) order. The wrap-around reset() only rewinds the cursor
// (the index is built once).
static void bench_replay_stream_next(benchmark::State& state) {
  using namespace deflate::trace;
  ReplayConfig replay;
  replay.azure.vm_count = 2000;
  replay.azure.seed = 3;
  replay.azure.duration = deflate::sim::SimTime::from_hours(24);
  const auto stream = make_arrival_stream(replay);
  for (auto _ : state) {
    auto record = stream->next();
    if (!record) {
      stream->reset();
      record = stream->next();
    }
    benchmark::DoNotOptimize(record);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bench_replay_stream_next);

// The peak sweep over 100k stubs, in id order (`sorted:0`, sorted first)
// or already in (start, id) order (`sorted:1`, as the record-vector
// simulator hands them over, where the sort is skipped). The copy the
// sweep consumes is made outside the timed region.
static void bench_peak_committed(benchmark::State& state) {
  using namespace deflate::trace;
  AzureTraceConfig config;
  config.vm_count = 100000;
  config.seed = 1;
  config.duration = deflate::sim::SimTime::from_hours(72);
  const AzureTraceGenerator gen(config);
  std::vector<ArrivalStub> stubs(config.vm_count);
  for (std::size_t i = 0; i < stubs.size(); ++i) stubs[i] = gen.arrival_of(i);
  if (state.range(0) != 0) {
    std::sort(stubs.begin(), stubs.end(),
              [](const ArrivalStub& a, const ArrivalStub& b) {
                return a.start != b.start ? a.start < b.start : a.id < b.id;
              });
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ArrivalStub> copy = stubs;
    state.ResumeTiming();
    benchmark::DoNotOptimize(peak_committed(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stubs.size()));
}
BENCHMARK(bench_peak_committed)->ArgName("sorted")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
