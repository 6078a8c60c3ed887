// Service-layer scenario: what the wire costs, and what batching buys
// back.
//
// The deflated daemon (src/net/server.hpp) puts a framed TCP protocol in
// front of the admission controller. This harness measures sustained
// admission decisions/sec through that protocol under concurrent client
// connections, against the in-process controller as the ceiling:
//
//   * in-process — net::Session::serve() called directly, the server's
//     own per-request step with no wire at all: the upper bound;
//   * sync       — 4 concurrent connections, one request per round-trip
//     (submit + flush every request): the naive RPC shape, paying a full
//     loopback RTT per decision;
//   * batched    — the same 4 connections using the client's request
//     batching (64 per flush) against the server's pipelining: one
//     round-trip amortized over the whole batch.
//
// Gates (exit 1 on regression):
//   1. batched throughput >= 2x sync at 4 concurrent connections — the
//      entire point of the batching client (ISSUE: acceptance criterion);
//   2. a captured price-policy session (deferral churn included) replays
//      bit-identically through a fresh controller stack
//      (src/net/capture.hpp) — the service must stay deterministic while
//      being fast.
//
// DEFLATE_BENCH_SCALE in (0, 1] shrinks the request counts for smoke
// runs; the 2x margin holds at every scale (the gap is architectural —
// RTTs per decision — not statistical).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/capture.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace {

using namespace deflate;

constexpr int kConnections = 4;

// A deliberately small fleet: the decision itself (an 8-server placement
// scan) costs ~1-2us, so the measured gap between sync and batched is the
// transport — round-trips per decision — not placement work. The
// placement-bound regime is bench/scenario_cluster_scale's territory.
net::ServiceConfig fleet_config() {
  net::ServiceConfig config;
  config.server_count = 8;
  config.shard_count = 1;
  config.admission_policy = "admit-all";
  return config;
}

cluster::AdmissionRequest make_request(std::uint64_t id) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "svc-" + std::to_string(id);
  spec.vcpus = 2;
  spec.memory_mib = 4096.0;
  spec.priority = 0.25 + 0.5 * static_cast<double>(id % 2);
  // Non-deflatable: once the small fleet fills, the remaining requests
  // are flat capacity rejections — still one decision each, with no
  // deflation-assisted placement search muddying the per-decision cost.
  spec.deflatable = false;
  // Arrivals a few ms apart: the clock advances but the price never
  // moves (no feed), so admit-all decides in O(placement).
  return cluster::AdmissionRequest::from_spec(
      spec, sim::SimTime::from_micros(static_cast<std::int64_t>(id) * 3000));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// In-process ceiling: decisions/sec through the server's session step.
double run_in_process(std::size_t requests) {
  net::ServiceCore core(fleet_config());
  net::Session session(core);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    net::AdmissionRequestMsg message;
    message.request_id = i + 1;
    message.request = make_request(i + 1);
    (void)session.serve(message);
  }
  return static_cast<double>(requests) / seconds_since(start);
}

/// Wire throughput with `batch` requests per flush across kConnections
/// concurrent clients; batch == 1 is the sync (request-per-round-trip)
/// shape.
double run_service(std::size_t requests_per_client, std::size_t batch) {
  net::Server server(fleet_config());
  if (!server.start()) {
    std::cerr << "FATAL: cannot start the service\n";
    std::exit(2);
  }
  std::vector<std::thread> clients;
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&server, requests_per_client, batch, c] {
      auto client = net::Client::connect(server.port());
      if (!client.has_value()) {
        std::cerr << "FATAL: client " << c << " cannot connect\n";
        std::exit(2);
      }
      std::size_t in_batch = 0;
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        client->submit(make_request(
            static_cast<std::uint64_t>(c + 1) * 1000000 + i + 1));
        if (++in_batch == batch) {
          if (!client->flush()) std::exit(2);
          in_batch = 0;
        }
      }
      if (!client->flush()) std::exit(2);
      if (client->decisions().size() != requests_per_client) {
        std::cerr << "FATAL: client " << c << " got "
                  << client->decisions().size() << " decisions, expected "
                  << requests_per_client << "\n";
        std::exit(2);
      }
    });
  }
  for (auto& thread : clients) thread.join();
  const double elapsed = seconds_since(start);
  server.stop();
  return static_cast<double>(requests_per_client * kConnections) / elapsed;
}

/// Determinism gate: a deferral-heavy captured session must replay to
/// bit-identical decisions.
bool capture_replays_identically(std::size_t requests) {
  const std::string path = "bench_scenario_service_capture.bin";
  {
    net::ServiceConfig config = fleet_config();
    config.server_count = 8;  // tight: placement pressure + price churn
    config.admission_policy = "price";
    config.admission.default_ceiling = 0.24;
    config.admission.max_defer_hours = 2.0;
    config.price_trace_hours = 72.0;
    config.price_seed = 11;
    config.capture_path = path;
    net::Server server(config);
    if (!server.start()) return false;
    auto client = net::Client::connect(server.port());
    if (!client.has_value()) return false;
    for (std::size_t i = 1; i <= requests; ++i) {
      // Deflatable, mixed-priority: the price policy actually defers
      // these, so the log carries the deferral churn replay must match.
      auto request = make_request(i);
      request.spec.deflatable = true;
      request.spec.priority = 0.1 + 0.2 * static_cast<double>(i % 4);
      request = cluster::AdmissionRequest::from_spec(
          request.spec,
          sim::SimTime::from_hours(48.0 * static_cast<double>(i) /
                                   static_cast<double>(requests)));
      client->submit(request);
      if (i % 8 == 0 && !client->flush()) return false;
    }
    if (!client->flush()) return false;
    server.stop();
  }
  const auto report = net::replay_capture(path);
  std::remove(path.c_str());
  std::cout << "capture replay: " << report.requests << " requests, "
            << report.decisions << " decisions, " << report.mismatches
            << " mismatches\n";
  if (!report.error.empty()) std::cerr << "replay error: " << report.error
                                       << "\n";
  return report.ok() && report.requests == requests;
}

}  // namespace

int main() {
  bench::print_header(
      "Scenario: admission-as-a-service throughput and determinism",
      "the service layer must not tax admission into irrelevance — "
      "batched pipelined connections amortize the round-trip, and the "
      "wire protocol preserves decision-for-decision determinism");

  // Identical workload (request stream and total count) in every mode:
  // only the transport shape differs.
  const auto per_client = bench::scaled(2000);
  const auto in_process = run_in_process(per_client * kConnections);
  const auto sync = run_service(per_client, 1);
  const auto batched = run_service(per_client, 64);

  util::Table table({"mode", "connections", "batch", "decisions/s"});
  table.add_row_labeled("in-process", {1, 0, in_process});
  table.add_row_labeled("sync", {kConnections, 1, sync});
  table.add_row_labeled("batched", {kConnections, 64, batched});
  table.print(std::cout);
  std::printf("\nbatched/sync speedup: %.1fx (gate: >= 2x)\n",
              batched / sync);

  bool ok = true;
  if (batched < 2.0 * sync) {
    std::cerr << "GATE FAILED: batched throughput " << batched
              << " < 2x sync " << sync << "\n";
    ok = false;
  }
  if (!capture_replays_identically(bench::scaled(240))) {
    std::cerr << "GATE FAILED: captured session did not replay "
                 "bit-identically\n";
    ok = false;
  }
  std::cout << (ok ? "\nall service gates passed\n"
                   : "\nservice gates FAILED\n");
  bench::print_profile();
  return ok ? 0 : 1;
}
