// Micro-benchmark: synthetic trace generation rate (VMs/second), the
// feasibility statistic kernel, and the streaming replay path (arrival-stub
// indexing and one-record-per-next() delivery).
#include <benchmark/benchmark.h>

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
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate_vm(id++ % 1000));
  }
  state.SetItemsProcessed(state.iterations());
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
