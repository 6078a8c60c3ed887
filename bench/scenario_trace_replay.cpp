// Scenario: streaming megafleet trace replay (ROADMAP: "production-trace
// megafleet scenario" — the bounded-memory path in src/trace/replay.hpp).
//
// Part 1 — megafleet replay: a multi-million-VM Azure arrival stream
// driven through admission -> sharded placement -> market/revocation at
// 100k+ servers (at DEFLATE_BENCH_SCALE=1), in bounded memory: the full
// fleet is never materialized — only the arrival index and the
// concurrently-live VMs are resident. The memory gate checks the peak
// resident set stayed a fraction of the trace (CI greps the PASS lines).
// Thread-count invariance of the replay is a unit test
// (TraceReplayParity.ThreadCountNeverChangesResults).
//
// Part 2 — trace-driven vs synthetic-arrival baseline: the same offered
// population with the diurnal arrival cohort disabled (uniform synthetic
// arrivals, the shape earlier scenario benches used). Cost, served
// throughput and placement latency are compared side by side: the diurnal
// trace's sharp committed-capacity peak is precisely what the synthetic
// baseline understates.
//
//   $ ./build/bench_scenario_trace_replay             # full megafleet
//   $ DEFLATE_BENCH_SCALE=0.2 ./build/bench_...       # CI smoke
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/replay.hpp"
#include "util/table.hpp"

namespace {

using namespace deflate;

bool all_gates_passed = true;

void gate(const std::string& name, bool pass) {
  std::cout << "gate " << name << ": " << (pass ? "PASS" : "FAIL") << "\n";
  if (!pass) all_gates_passed = false;
}

// --- megafleet replay vs synthetic baseline ---------------------------------

simcluster::SimConfig fleet_config(std::size_t servers) {
  simcluster::SimConfig config;
  config.server_count = servers;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.shard_count = 8;
  config.market_enabled = true;
  config.market.seed = 7;
  config.market.revocation.model = transient::RevocationModel::Poisson;
  return config;
}

struct FleetRun {
  std::string label;
  std::size_t arrivals = 0;
  std::size_t servers = 0;
  std::size_t peak_active = 0;
  double seconds = 0.0;
  simcluster::SimMetrics metrics;
};

FleetRun run_fleet(const std::string& label,
                   const trace::ReplayConfig& replay) {
  FleetRun run;
  run.label = label;
  const auto stream = trace::make_arrival_stream(replay);
  run.arrivals = stream->size();
  run.servers = trace::servers_for_overcommit(
      *stream, {48.0, 128.0 * 1024.0, 1e9, 1e9}, 0.2);
  simcluster::TraceDrivenSimulator simulator(*stream,
                                             fleet_config(run.servers));
  const auto start = std::chrono::steady_clock::now();
  run.metrics = simulator.run();
  const auto end = std::chrono::steady_clock::now();
  run.seconds = std::chrono::duration<double>(end - start).count();
  run.peak_active = simulator.peak_active_records();
  return run;
}

void megafleet() {
  // ~4.5M VMs over 24h sizes the fleet to ~120k servers at scale 1 (the
  // concurrency peak commits ~0.027 servers per offered VM on this mix).
  const std::size_t vms = bench::scaled(4500000);

  trace::ReplayConfig traced;
  traced.azure.vm_count = vms;
  traced.azure.seed = 42;
  traced.azure.duration = sim::SimTime::from_hours(24);

  // Synthetic-arrival baseline: same population, diurnal cohort disabled —
  // arrivals spread uniformly, the shape the synthetic churn benches use.
  trace::ReplayConfig synthetic = traced;
  synthetic.azure.diurnal_share = 0.0;

  std::cout << "-- megafleet: trace-driven vs synthetic arrivals --\n"
            << vms << " offered VMs over 24 h, admission -> 8-shard "
               "placement -> spot market, 20% headroom\n\n";

  const FleetRun trace_run = run_fleet("trace-driven (diurnal)", traced);
  const FleetRun synth_run = run_fleet("synthetic (uniform)", synthetic);

  util::Table table({"arrival source", "servers", "peak resident VMs",
                     "run_s", "placements_per_s", "served_throughput",
                     "fleet_cost", "saving_vs_od", "unserved_ch"});
  for (const FleetRun* run : {&trace_run, &synth_run}) {
    const double placements_per_s =
        run->seconds > 0.0 ? static_cast<double>(run->arrivals) / run->seconds
                           : 0.0;
    table.add_row(
        {run->label, std::to_string(run->servers),
         std::to_string(run->peak_active),
         util::format_double(run->seconds, 1),
         util::format_double(placements_per_s, 0),
         util::format_double(100.0 * (1.0 - run->metrics.throughput_loss), 2) +
             "%",
         util::format_double(run->metrics.cost.total_cost(), 0),
         util::format_double(run->metrics.cost.saving_percent(), 1) + "%",
         util::format_double(run->metrics.unserved_core_hours, 0)});
  }
  table.print(std::cout);
  std::cout << "\n";
  bench::print_profile();

  // Scale gate: the headline claim only holds at full scale.
  if (bench::bench_scale() >= 1.0) {
    gate("megafleet_servers>=100k", trace_run.servers >= 100000);
  } else {
    std::cout << "(megafleet server gate skipped at DEFLATE_BENCH_SCALE="
              << bench::bench_scale() << ": " << trace_run.servers
              << " servers)\n";
  }
  // Memory gate: streaming never held the fleet — the peak resident set is
  // the concurrent population, a fraction of the offered trace.
  gate("bounded_memory(peak_resident<60%)",
       trace_run.peak_active <
           (trace_run.arrivals * 6) / 10);
}

}  // namespace

int main() {
  bench::print_header(
      "Scenario: streaming megafleet trace replay",
      "cloud-scale deflation studies need production-shaped arrival "
      "traces; the streaming replay drives millions of trace arrivals "
      "through admission and placement in bounded memory");

  megafleet();

  std::cout << "\nThe diurnal trace concentrates its committed-capacity "
               "peak into the business-hours\ncohort: the same offered "
               "population needs a larger fleet (or deflates deeper)\nthan "
               "the uniform synthetic baseline suggests — the reason "
               "replaying real arrival\nshapes matters for capacity "
               "planning.\n";
  std::cout << (all_gates_passed ? "ALL GATES PASSED\n" : "GATES FAILED\n");
  return all_gates_passed ? 0 : 1;
}
