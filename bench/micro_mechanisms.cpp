// Micro-benchmark: per-VM deflation operation latency for the three
// mechanisms (the local controller applies one per VM per reclamation).
#include <benchmark/benchmark.h>

#include "hypervisor/host.hpp"
#include "mechanisms/mechanism.hpp"

namespace {

using namespace deflate;

struct Rig {
  Rig() : host(0, {48.0, 131072.0, 4000.0, 40000.0}) {
    hv::VmSpec spec;
    spec.id = 1;
    spec.name = "vm";
    spec.vcpus = 16;
    spec.memory_mib = 32768.0;
    spec.deflatable = true;
    vm = &host.add_vm(spec);
    vm->set_rss(12000.0);
  }
  hv::Host host;
  hv::Vm* vm = nullptr;
};

void bench_mechanism(benchmark::State& state, mech::DeflationMechanism& m) {
  Rig rig;
  const res::ResourceVector spec = rig.vm->spec().vector();
  double deflation = 0.1;
  for (auto _ : state) {
    deflation = deflation > 0.8 ? 0.1 : deflation + 0.07;
    benchmark::DoNotOptimize(m.apply(*rig.vm, spec * (1.0 - deflation)));
  }
}

}  // namespace

static void bench_transparent(benchmark::State& state) {
  mech::TransparentDeflation m;
  bench_mechanism(state, m);
}
static void bench_explicit(benchmark::State& state) {
  mech::ExplicitDeflation m;
  bench_mechanism(state, m);
}
static void bench_hybrid(benchmark::State& state) {
  mech::HybridDeflation m;
  bench_mechanism(state, m);
}

BENCHMARK(bench_transparent);
BENCHMARK(bench_explicit);
BENCHMARK(bench_hybrid);
