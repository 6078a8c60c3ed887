#include "service_workload.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "latency.hpp"
#include "layers.hpp"
#include "net/capture.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "spans.hpp"
#include "traced_manager.hpp"
#include "transient/spot_price.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace cluster = deflate::cluster;
namespace hv = deflate::hv;
namespace net = deflate::net;
namespace sim = deflate::sim;

/// Client connections; with one handler thread each, clients plus handlers
/// stay within a 4-core box.
constexpr std::size_t kConnections = 2;
constexpr std::size_t kSyncPerConnection = 4000;
constexpr std::size_t kBatchPerConnection = 20000;
constexpr std::size_t kBatch = 64;
constexpr double kTraceHours = 72.0;
constexpr double kMaxDeferHours = 0.25;
/// The market is part of the service's configuration: one price trace for
/// every seed, so the seed varies the request stream only.
constexpr std::uint64_t kPriceSeed = 42;

using Stream = std::vector<cluster::AdmissionRequest>;

std::vector<Stream> make_streams(std::uint64_t seed, std::size_t per_connection) {
  std::vector<Stream> streams;
  for (std::size_t c = 0; c < kConnections; ++c) {
    streams.push_back(service_requests(seed, c, kConnections, per_connection));
  }
  return streams;
}

/// The outcome of one server session (one phase).
struct Session {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> round_trip_us;  ///< per flush
  RequestTally tally;
  net::ServerStats stats;
  std::uint64_t resolved = 0;  ///< deferral resolutions received
  double requested_cores = 0.0;
  double allocated_cores = 0.0;
  double cost = 0.0;
  std::vector<cluster::AdmissionDecision> decisions;  ///< latest per request
  std::vector<std::string> problems;
};

/// Runs the streams through a fresh server, one client per stream, with
/// `batch` requests per flush. `spans` (one recorder per connection) may be
/// null.
Session run_session(const net::ServiceConfig& config,
                    const std::vector<Stream>& streams, std::size_t batch,
                    std::vector<SpanRecorder>* spans) {
  Session session;
  const std::int64_t setup_start = steady_now_ns();
  net::Server server(config);
  if (!server.start()) throw std::runtime_error("cannot start the service");
  std::vector<net::Client> clients;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    auto client = net::Client::connect(server.port());
    if (!client) throw std::runtime_error("cannot connect to the service");
    clients.push_back(std::move(*client));
  }
  session.setup_s = seconds_since(setup_start);

  std::vector<std::vector<double>> round_trips(streams.size());
  std::vector<std::uint8_t> broken(streams.size(), 0);
  const auto drive = [&](std::size_t c) {
    net::Client& client = clients[c];
    SpanRecorder* recorder = spans != nullptr ? &(*spans)[c] : nullptr;
    const auto submit_id = recorder ? recorder->intern("client.submit") : 0;
    const auto flush_id = recorder ? recorder->intern("client.flush") : 0;
    round_trips[c].reserve(streams[c].size() / batch + 1);
    std::size_t pending = 0;
    std::int64_t batch_start = steady_now_ns();
    for (std::size_t i = 0; i < streams[c].size(); ++i) {
      if (pending == 0) batch_start = steady_now_ns();
      {
        const SpanRecorder::Scope span(recorder, submit_id);
        client.submit(streams[c][i]);
      }
      if (++pending < batch && i + 1 < streams[c].size()) continue;
      bool ok = false;
      {
        const SpanRecorder::Scope span(recorder, flush_id);
        ok = client.flush();
      }
      if (!ok) {
        broken[c] = 1;
        return;
      }
      round_trips[c].push_back(
          static_cast<double>(steady_now_ns() - batch_start) * 1e-3);
      pending = 0;
    }
  };
  const double cpu_start = process_cpu_seconds();
  const std::int64_t start = steady_now_ns();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back(drive, c);
  }
  for (std::thread& thread : threads) thread.join();
  session.wall_s = seconds_since(start);
  session.cpu_s = process_cpu_seconds() - cpu_start;
  session.stats = server.stats();
  server.stop();

  for (std::size_t c = 0; c < streams.size(); ++c) {
    const net::Client& client = clients[c];
    session.round_trip_us.insert(session.round_trip_us.end(),
                                 round_trips[c].begin(), round_trips[c].end());
    session.tally += tally_requests(streams[c].size(), client.decisions(),
                                    client.last_error() ? 1 : 0);
    session.resolved += client.resolved_deferrals().size();
    if (broken[c]) {
      session.problems.push_back(
          "connection " + std::to_string(c) + " failed" +
          (client.last_error() ? ": " + client.last_error()->message : ""));
    }
    // Client request ids are 1, 2, … in submit order.
    for (const auto& [request_id, decision] : client.decisions()) {
      session.decisions.push_back(decision);
      if (request_id == 0 || request_id > streams[c].size()) continue;
      const hv::VmSpec& spec = streams[c][request_id - 1].spec;
      const double cores = static_cast<double>(spec.vcpus);
      if (decision.admitted()) {
        const double fraction = decision.placement.launch_fraction;
        session.requested_cores += cores;
        session.allocated_cores += cores * fraction;
        session.cost += spec.deflatable
                            ? cores * fraction * decision.quoted_price
                            : cores * config.on_demand_price;
      } else {
        session.cost += cores * config.on_demand_price;
      }
    }
  }
  const std::uint64_t sent = session.tally.sent;
  if (session.tally.protocol_failures() != 0) {
    session.problems.push_back(
        std::to_string(session.tally.protocol_failures()) +
        " requests without a valid final decision (" +
        std::to_string(session.tally.errors) + " error frames, " +
        std::to_string(session.tally.lost) + " lost, " +
        std::to_string(session.tally.invalid) + " invalid)");
  }
  if (session.stats.admission_requests != sent) {
    session.problems.push_back(
        "server saw " + std::to_string(session.stats.admission_requests) +
        " requests, clients sent " + std::to_string(sent));
  }
  if (session.stats.decisions != session.stats.admission_requests +
                                     session.resolved) {
    session.problems.push_back(
        "server sent " + std::to_string(session.stats.decisions) +
        " decision frames for " +
        std::to_string(session.stats.admission_requests) + " requests and " +
        std::to_string(session.resolved) +
        " deferral resolutions: not exactly one final decision each");
  }
  if (session.stats.malformed_frames != 0) {
    session.problems.push_back("malformed frames reached the server");
  }
  return session;
}

void require(Result& result, const Session& session, const std::string& phase) {
  for (const std::string& problem : session.problems) {
    result.fail(phase + ": " + problem);
  }
}

/// An untimed captured session of the batched stream must replay through a
/// fresh controller stack with no mismatches.
void check_capture(const RunOptions& options, const std::vector<Stream>& streams,
                   Result& result) {
  net::ServiceConfig config = service_config();
  config.capture_path = options.out_dir + "/service-capture-" +
                        std::to_string(options.seed) + ".bin";
  const Session session = run_session(config, streams, kBatch, nullptr);
  require(result, session, "captured session");
  const net::ReplayReport report = net::replay_capture(config.capture_path);
  std::remove(config.capture_path.c_str());
  std::cout << "capture replay: " << report.requests << " requests, "
            << report.decisions << " decisions, " << report.mismatches
            << " mismatches\n";
  if (!report.ok() || report.requests != session.tally.sent) {
    result.fail("capture replay: " +
                (report.error.empty()
                     ? std::to_string(report.mismatches) + " mismatches"
                     : report.error));
  }
}

void print_session(const std::string& label, const Session& session) {
  std::cout << label << ": setup " << std::fixed << std::setprecision(4)
            << session.setup_s << " s, " << session.tally.sent
            << " requests in " << session.wall_s << " s ("
            << std::setprecision(0)
            << static_cast<double>(session.stats.decisions) / session.wall_s
            << " decisions/s), " << session.tally.admitted << " admitted, "
            << session.tally.refused << " refused, " << session.resolved
            << " deferrals resolved in-stream\n"
            << std::defaultfloat;
}

void run_untraced(const RunOptions& options, Result& result) {
  const net::ServiceConfig config = service_config();
  const std::vector<Stream> sync_streams =
      make_streams(options.seed, kSyncPerConnection);
  const std::vector<Stream> batch_streams =
      make_streams(options.seed, kBatchPerConnection);
  check_capture(options, batch_streams, result);

  std::vector<double> setups, sync_rate, batch_rate, p50, p99;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Session last_batch;
  const std::int64_t start = steady_now_ns();
  std::size_t rounds = 0;
  while (true) {
    const Session sync = run_session(config, sync_streams, 1, nullptr);
    const Session batched = run_session(config, batch_streams, kBatch, nullptr);
    ++rounds;
    for (const Session* session : {&sync, &batched}) {
      require(result, *session, session == &sync ? "sync" : "batched");
      setups.push_back(session->setup_s);
      attempted += session->tally.sent;
      failed += session->tally.protocol_failures();
    }
    const LatencySummary rtt = summarize(sync.round_trip_us);
    std::vector<double> sorted = sync.round_trip_us;
    std::sort(sorted.begin(), sorted.end());
    if (!percentile_supported(sorted.size(), 99.0)) {
      result.fail("too few sync round trips for a p99");
    }
    p50.push_back(rtt.median);
    p99.push_back(percentile_sorted(sorted, 99.0));
    sync_rate.push_back(static_cast<double>(sync.tally.sent) / sync.wall_s);
    batch_rate.push_back(static_cast<double>(batched.stats.decisions) /
                         batched.wall_s);
    if (rounds == 1) {
      print_session("sync", sync);
      print_session("batched", batched);
      std::cout << "sync round trip: " << describe(rtt, "us") << "\n";
    }
    last_batch = batched;
    const double elapsed = seconds_since(start);
    if (rounds >= 3 &&
        elapsed + elapsed / static_cast<double>(rounds) > options.seconds) {
      break;
    }
  }
  std::cout << rounds << " rounds (sync + batched session each)\n";

  const RequestTally& tally = last_batch.tally;
  result.attempted = attempted;
  result.failed = failed;
  result.set("setup_s", median(setups));
  result.set("peak_rss_mib", peak_rss_mib());
  result.set("vms_per_s", median(sync_rate));
  result.set("decisions_per_s", median(batch_rate));
  result.set("decision_p50_us", median(p50));
  result.set("decision_p99_us", median(p99));
  result.set("throughput_loss_pct",
             last_batch.requested_cores > 0.0
                 ? 100.0 * (1.0 - last_batch.allocated_cores /
                                      last_batch.requested_cores)
                 : 0.0);
  Result::info("failed_vm_pct", share_pct(tally.refused, tally.sent), "%");
  Result::info("failed_request_pct", tally.failed_pct(), "%");
  result.set("effective_cost", last_batch.cost);
}

/// ServiceCore's construction (spot trace, price feed, fleet, one
/// registry-built controller per connection, a monotonic clock) rebuilt
/// around the span decorator, so the in-process pass sees the manager.
struct InProcessStack {
  std::vector<deflate::transient::PriceTrace> traces;
  std::unique_ptr<TracedManager> manager;
  std::vector<std::unique_ptr<cluster::AdmissionController>> controllers;
  sim::SimTime clock;
  double plan_s = 0.0;
};

InProcessStack build_stack(const net::ServiceConfig& config,
                           SpanRecorder* spans) {
  InProcessStack stack;
  const std::int64_t start = steady_now_ns();
  deflate::transient::SpotPriceConfig spot = config.spot;
  spot.on_demand_price = config.on_demand_price;
  stack.traces.push_back(
      deflate::transient::SpotPriceModel(spot, config.price_seed)
          .generate(sim::SimTime::from_hours(config.price_trace_hours)));
  stack.plan_s = seconds_since(start);
  cluster::ShardedClusterConfig fleet;
  fleet.cluster.server_count = config.server_count;
  fleet.cluster.placement_name = config.placement_policy;
  fleet.cluster.worker_threads = 1;
  fleet.shard_count = config.shard_count;
  fleet.selection = config.shard_policy;
  fleet.selection_name = config.shard_policy_name;
  fleet.routing_seed = config.routing_seed;
  fleet.worker_threads = 1;
  stack.manager = std::make_unique<TracedManager>(
      cluster::make_cluster_manager(fleet), spans);
  for (std::size_t c = 0; c < kConnections; ++c) {
    stack.controllers.push_back(cluster::make_admission_controller_by_name(
        config.admission_policy, config.admission, *stack.manager,
        cluster::PriceFeed({&stack.traces.front()}, config.on_demand_price)));
  }
  return stack;
}

using Decisions = std::vector<cluster::AdmissionDecision>;

/// Feeds the streams, interleaved request by request across connections,
/// through per-connection controllers the way the server does (advance the
/// clock, drain, decide). Returns every decision in order.
template <class Decide>
Decisions in_process_pass(const std::vector<Stream>& streams, Decide decide) {
  Decisions out;
  std::size_t longest = 0;
  for (const Stream& stream : streams) longest = std::max(longest, stream.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::size_t c = 0; c < streams.size(); ++c) {
      if (i < streams[c].size()) decide(c, streams[c][i], out);
    }
  }
  return out;
}

bool same_decision(const cluster::AdmissionDecision& a,
                   const cluster::AdmissionDecision& b) {
  return a.status == b.status && a.reason == b.reason &&
         a.quoted_price == b.quoted_price &&
         a.placement.host_id == b.placement.host_id &&
         a.placement.launch_fraction == b.placement.launch_fraction &&
         a.retry_at == b.retry_at;
}

/// What the net-layer measurement leaves for the caller's metrics.
struct NetLayer {
  Session untraced;  ///< batched session: profiler rows, server counters
  ProfileRows rows;
  SpanStats stats;  ///< client + codec
  std::vector<Stream> streams;  ///< the batched streams
  double build_s = 0.0;         ///< building them
};

/// The net layer on the workload's own streams: an untraced batched session
/// (profiler rows, ServerStats), traced sync and batched sessions with spans
/// around Client::submit / flush on both connections, and the codec on the
/// sessions' own request and decision frames. Prints the layer lines.
NetLayer measure_net_layer(const RunOptions& options, Result& result) {
  const net::ServiceConfig config = service_config();
  NetLayer net;
  const std::int64_t build_start = steady_now_ns();
  net.streams = make_streams(options.seed, kBatchPerConnection);
  net.build_s = seconds_since(build_start);

  deflate::util::Profiler::instance().reset();
  net.untraced = run_session(config, net.streams, kBatch, nullptr);
  require(result, net.untraced, "untraced session");
  net.rows = profile_rows();

  std::vector<SpanRecorder> client_spans(kConnections);
  const Session sync = run_session(
      config, make_streams(options.seed, kSyncPerConnection), 1, &client_spans);
  require(result, sync, "traced sync session");
  const Session batched =
      run_session(config, net.streams, kBatch, &client_spans);
  require(result, batched, "traced batched session");
  for (const SpanRecorder& recorder : client_spans) {
    for (auto& [name, stats] : recorder.stats()) {
      SpanRecorder::NameStats& merged = net.stats[name];
      merged.calls += stats.calls;
      merged.total_ns += stats.total_ns;
      merged.self_ns += stats.self_ns;
      merged.durations_ns.insert(merged.durations_ns.end(),
                                 stats.durations_ns.begin(),
                                 stats.durations_ns.end());
    }
  }

  SpanRecorder codec;
  const auto encode_id = codec.intern("codec.encode_request");
  const auto decode_id = codec.intern("codec.decode_decision");
  for (const Stream& stream : net.streams) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      net::AdmissionRequestMsg msg;
      msg.request_id = i + 1;
      msg.request = stream[i];
      const SpanRecorder::Scope span(&codec, encode_id);
      if (net::encode_frame(net::Message{msg}).size() <= net::kHeaderSize) {
        result.fail("empty request frame");
      }
    }
  }
  for (const auto& decision : batched.decisions) {
    net::AdmissionDecisionMsg msg;
    msg.decision = decision;
    const auto frame = net::encode_frame(net::Message{msg});
    const SpanRecorder::Scope span(&codec, decode_id);
    if (net::decode_frame(frame.data(), frame.size()).status !=
        net::DecodeStatus::Ok) {
      result.fail("a decision frame does not decode");
    }
  }
  for (auto& [name, stats] : codec.stats()) net.stats[name] = std::move(stats);
  print_layers(net.stats);
  result.attempted += net.untraced.tally.sent + sync.tally.sent +
                      batched.tally.sent;
  result.failed += net.untraced.tally.protocol_failures() +
                   sync.tally.protocol_failures() +
                   batched.tally.protocol_failures();
  return net;
}

void set_net_metrics(const NetLayer& net, Result& result) {
  result.set("client.flush.calls",
             static_cast<double>(stats_of(net.stats, "client.flush").calls));
  const net::ServerStats& stats = net.untraced.stats;
  result.set("server.frames_per_request",
             stats.admission_requests == 0
                 ? 0.0
                 : static_cast<double>(stats.decisions) /
                       static_cast<double>(stats.admission_requests));
}

void run_traced(const RunOptions& options, Result& result) {
  const net::ServiceConfig config = service_config();
  const NetLayer net = measure_net_layer(options, result);

  // The in-process pass, traced, and the same pass through ServiceCore
  // itself: the rebuilt stack must decide identically.
  SpanRecorder spans;
  InProcessStack stack = build_stack(config, &spans);
  const auto inproc_id = spans.intern("service.inproc_decide");
  const auto decide_id = spans.intern("admission.decide");
  const auto drain_id = spans.intern("admission.drain");
  std::uint64_t queue_peak = 0;
  const Decisions traced = in_process_pass(
      net.streams, [&](std::size_t c, const cluster::AdmissionRequest& request,
                       Decisions& out) {
        if (request.arrival > stack.clock) stack.clock = request.arrival;
        const SpanRecorder::Scope span(&spans, inproc_id);
        cluster::AdmissionController& controller = *stack.controllers[c];
        {
          const SpanRecorder::Scope drain_span(&spans, drain_id);
          for (auto& resolved : controller.drain(stack.clock)) {
            out.push_back(resolved.decision);
          }
        }
        const SpanRecorder::Scope decide_span(&spans, decide_id);
        out.push_back(controller.decide(request, stack.clock));
        queue_peak = std::max<std::uint64_t>(queue_peak, controller.queued());
      });
  net::ServiceCore core(config);
  std::vector<std::unique_ptr<cluster::AdmissionController>> core_controllers;
  for (std::size_t c = 0; c < kConnections; ++c) {
    core_controllers.push_back(core.make_controller());
  }
  const Decisions reference = in_process_pass(
      net.streams, [&](std::size_t c, const cluster::AdmissionRequest& request,
                       Decisions& out) {
        const sim::SimTime now = core.advance_clock(request.arrival);
        for (auto& resolved : core_controllers[c]->drain(now)) {
          out.push_back(resolved.decision);
        }
        out.push_back(core_controllers[c]->decide(request, now));
      });
  bool identical = traced.size() == reference.size();
  for (std::size_t i = 0; identical && i < traced.size(); ++i) {
    identical = same_decision(traced[i], reference[i]);
  }
  if (!identical) {
    result.fail("the traced in-process stack decides differently from "
                "ServiceCore");
  }

  std::uint64_t deferrals = 0, requests = 0;
  for (const auto& controller : stack.controllers) {
    deferrals += controller->stats().deferrals;
    requests += controller->stats().requests;
  }
  SpanStats stats = spans.stats();
  print_layers(stats);
  std::cout << "in-process stack: " << (identical ? "identical" : "DIFFERENT")
            << " decisions to ServiceCore over " << traced.size()
            << " decisions\n"
            << "layer trace, simcluster, sharded, migration, control: not on "
               "this workload's path\n";
  stats.insert(net.stats.begin(), net.stats.end());

  set_profile_metrics(net.rows, config.shard_count > 1,
                      net.untraced.cpu_s / net.untraced.wall_s, result);
  set_span_metrics(stats, result);
  set_net_metrics(net, result);
  result.set("migration.live_share", 0.0);
  result.set("control.moves", 0.0);
  result.set("admission.deferred_share",
             requests == 0 ? 0.0
                           : static_cast<double>(deferrals) /
                                 static_cast<double>(requests));
  result.set("admission.queue_peak", static_cast<double>(queue_peak));
  result.set("trace.index_build_s", net.build_s);
  result.set("transient.plan_s", stack.plan_s);

  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".csv";
  if (!spans.write_csv(path, {host_record(options)})) {
    result.fail("cannot write " + path);
  } else {
    std::cout << "spans: " << spans.spans().size() << " in-process "
              << "spans written to " << path << "\n";
  }
}

}  // namespace

net::ServiceConfig service_config() {
  net::ServiceConfig config;
  config.port = 0;
  config.worker_threads = kConnections;
  config.server_count = 16;
  config.shard_count = 1;
  config.admission_policy = "price";
  config.admission.default_ceiling = 0.3;
  config.admission.max_defer_hours = kMaxDeferHours;
  config.price_trace_hours = kTraceHours;
  config.price_seed = kPriceSeed;
  return config;
}

std::vector<cluster::AdmissionRequest> service_requests(
    std::uint64_t seed, std::size_t connection, std::size_t connections,
    std::size_t per_connection) {
  static constexpr std::array<double, 4> kVcpuWeights{0.35, 0.35, 0.2, 0.1};
  static constexpr std::array<int, 4> kVcpus{1, 2, 4, 8};
  std::vector<cluster::AdmissionRequest> out;
  out.reserve(per_connection + 1);
  // Every connection walks the same arrival schedule (offset by a fraction
  // of one gap), so no caller runs ahead of the shared service clock by
  // more than its own lag.
  const double gap_hours = kTraceHours / static_cast<double>(per_connection);
  for (std::size_t i = 0; i < per_connection; ++i) {
    const std::size_t global = i * connections + connection;
    deflate::util::Rng rng = deflate::util::Rng::keyed(seed, global);
    hv::VmSpec spec;
    spec.id = global + 1;
    spec.vcpus = kVcpus[rng.weighted_index(kVcpuWeights)];
    spec.memory_mib = 1024.0 * spec.vcpus * (rng.bernoulli(0.5) ? 2.0 : 4.0);
    spec.deflatable = i % 2 == 1;
    spec.priority =
        spec.deflatable ? 0.1 + 0.2 * static_cast<double>(rng.next_u64() % 4)
                        : 1.0;
    spec.name = "svc-" + std::to_string(spec.id);
    const double at = gap_hours * (static_cast<double>(i) +
                                   static_cast<double>(connection) /
                                       static_cast<double>(connections));
    out.push_back(cluster::AdmissionRequest::from_spec(
        spec, sim::SimTime::from_hours(at)));
  }
  // Past every deferral deadline: drains this connection's queue.
  hv::VmSpec sweep;
  sweep.id = per_connection * connections + 1 + connection;
  sweep.vcpus = 1;
  sweep.memory_mib = 1024.0;
  sweep.name = "svc-sweep-" + std::to_string(connection);
  out.push_back(cluster::AdmissionRequest::from_spec(
      sweep, sim::SimTime::from_hours(kTraceHours + kMaxDeferHours + 1.0)));
  return out;
}

void measure_net_layer_for(const RunOptions& options, Result& result) {
  set_net_metrics(measure_net_layer(options, result), result);
}

void run_service_workload(const RunOptions& options, Result& result) {
  if (options.trace) {
    run_traced(options, result);
  } else {
    run_untraced(options, result);
  }
}

}  // namespace perfbench
