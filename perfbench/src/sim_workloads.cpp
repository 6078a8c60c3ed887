#include "sim_workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "latency.hpp"
#include "layers.hpp"
#include "service_workload.hpp"
#include "spans.hpp"
#include "traced_manager.hpp"
#include "trace/azure.hpp"
#include "trace/replay.hpp"
#include "util/profiler.hpp"

namespace perfbench {

namespace {

namespace cluster = deflate::cluster;
namespace control = deflate::control;
namespace hv = deflate::hv;
namespace res = deflate::res;
namespace sc = deflate::simcluster;
namespace sim = deflate::sim;
namespace trace = deflate::trace;
namespace transient = deflate::transient;

// --- workload definitions ---------------------------------------------------

/// §7.1.2's server: 48 cores, 128 GiB.
const res::ResourceVector kServerCapacity{48.0, 128.0 * 1024.0, 1e9, 1e9};

/// Offered VMs. The replay size keeps every one of the 4 shards above the
/// 1,024-server threshold of the pooled in-shard scan.
constexpr std::size_t kReplayVms = 160000;
constexpr std::size_t kMarketVms = 100000;
constexpr std::size_t kReplayShards = 4;
/// Serial: with the shared placement pool, handoffs between threads on a
/// virtualized box swung replay throughput by 2x run to run. The traced
/// run measures the pool separately (kPoolThreads).
constexpr std::size_t kReplayThreads = 1;
constexpr std::size_t kPoolThreads = 2;
/// The spot markets belong to the workload definition: every seed faces
/// the same prices and revocation schedule, and the seed varies the trace.
constexpr std::uint64_t kReplayMarketSeed = 7;
constexpr std::uint64_t kMarketMarketSeed = 11;
/// Set-up timings per untraced run (their median is setup_s).
constexpr std::size_t kSetupSamples = 5;

enum class Kind { Replay, Market };

trace::ReplayConfig replay_source(std::uint64_t seed) {
  trace::ReplayConfig replay;
  replay.source = trace::ArrivalSource::Azure;
  replay.azure.vm_count = kReplayVms;
  replay.azure.seed = seed;
  replay.azure.duration = sim::SimTime::from_hours(24);
  replay.window = 1024;
  replay.worker_threads = kReplayThreads;
  return replay;
}

trace::AzureTraceConfig market_source(std::uint64_t seed) {
  trace::AzureTraceConfig azure;
  azure.vm_count = kMarketVms;
  azure.seed = seed;
  azure.duration = sim::SimTime::from_hours(72);
  return azure;
}

/// The inputs of one simulation: arrival source plus simulator config.
struct SimInputs {
  Kind kind = Kind::Replay;
  std::unique_ptr<trace::VmArrivalStream> stream;  // replay
  std::vector<trace::VmRecord> records;            // market
  sc::SimConfig config;
  double source_build_s = 0.0;  ///< stream index or record generation
};

SimInputs build_inputs(Kind kind, std::uint64_t seed) {
  SimInputs inputs;
  inputs.kind = kind;
  const std::int64_t start = steady_now_ns();
  if (kind == Kind::Replay) {
    inputs.stream = trace::make_arrival_stream(replay_source(seed));
    inputs.source_build_s = seconds_since(start);
    inputs.config = replay_config(
        trace::servers_for_overcommit(*inputs.stream, kServerCapacity, 0.2));
  } else {
    inputs.records = trace::AzureTraceGenerator(market_source(seed)).generate();
    inputs.source_build_s = seconds_since(start);
    inputs.config =
        market_config(sc::TraceDrivenSimulator::servers_for_overcommit(
            inputs.records, kServerCapacity, -0.2));
  }
  return inputs;
}

std::unique_ptr<sc::TraceDrivenSimulator> make_simulator(SimInputs& inputs) {
  if (inputs.kind == Kind::Replay) {
    return std::make_unique<sc::TraceDrivenSimulator>(*inputs.stream,
                                                      inputs.config);
  }
  return std::make_unique<sc::TraceDrivenSimulator>(std::move(inputs.records),
                                                    inputs.config);
}

// --- timed admission policies -------------------------------------------------

std::vector<double>* g_decision_sink = nullptr;

/// `Policy`'s decisions, with each evaluation's wall time recorded.
template <class Policy>
class TimedAdmission final : public Policy {
 public:
  using Policy::Policy;

 protected:
  cluster::AdmissionDecision evaluate(const cluster::AdmissionRequest& request,
                                      sim::SimTime now) override {
    const auto start = std::chrono::steady_clock::now();
    cluster::AdmissionDecision decision = Policy::evaluate(request, now);
    if (g_decision_sink != nullptr) {
      g_decision_sink->push_back(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    return decision;
  }
};

template <class Policy>
cluster::AdmissionSurface::Factory timed_factory(
    cluster::AdmissionPolicyKind kind) {
  return [kind](const cluster::AdmissionConfig& config,
                cluster::ClusterManagerBase& manager, cluster::PriceFeed feed)
             -> std::unique_ptr<cluster::AdmissionController> {
    cluster::AdmissionConfig selected = config;
    selected.policy = kind;
    return std::make_unique<TimedAdmission<Policy>>(std::move(selected),
                                                    manager, std::move(feed));
  };
}

// --- helpers ------------------------------------------------------------------

double on_demand_rate(const sc::SimConfig& config) {
  return config.market.effective_markets().front().price.on_demand_price;
}

double effective_cost(const sc::SimMetrics& metrics,
                      const sc::SimConfig& config) {
  return metrics.cost.total_cost() +
         metrics.unserved_core_hours * on_demand_rate(config);
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

// --- the traced event loop ------------------------------------------------------

/// What the traced loop observed, beside its spans.
struct LoopReport {
  double wall_s = 0.0;
  double plan_s = 0.0;
  std::uint64_t queue_peak = 0;
  cluster::AdmissionStats admission;
  cluster::ClusterStats cluster_stats;
  cluster::MigrationEngineStats migration;
  std::uint64_t moves = 0;
};

/// Simulator steps with no public entry point, named instead of
/// approximated.
const std::vector<std::string>& unreproduced_steps() {
  static const std::vector<std::string> steps{
      "throughput-loss, revenue and cost accounting (finalize, allocation "
      "timelines, downtime and unserved-demand billing): simulator-internal "
      "bookkeeping; the loop keeps only the VM state that decides which "
      "calls reach the layers",
      "deflation and migration callbacks: the simulator subscribes them for "
      "that accounting; the loop subscribes preemptions only",
      "cutover pause/resume events: replayed as clock advances only (they "
      "touch allocation timelines, never a layer)",
  };
  return steps;
}

/// A plan event as the simulator orders it: (at, kind, server).
struct PlanEvent {
  sim::SimTime at;
  int kind = 0;  // 1 = Restore, 2 = Warn, 3 = Revoke (simulator ranks)
  std::size_t server = 0;
  sim::SimTime deadline;
};

constexpr int kRankEnd = 0, kRankRestore = 1, kRankWarn = 2, kRankRevoke = 3,
              kRankReopt = 4, kRankStart = 5;

std::vector<PlanEvent> plan_events(const transient::CapacityPlan& plan,
                                   const sc::SimConfig& config, bool timed) {
  std::vector<PlanEvent> events;
  for (const transient::RevocationEvent& rev : plan.revocations) {
    events.push_back(
        {rev.at, rev.revoke ? kRankRevoke : kRankRestore, rev.server, {}});
  }
  if (timed) {
    const std::vector<transient::MarketDef> defs =
        config.market.effective_markets();
    for (std::size_t m = 0; m < plan.markets.size() && m < defs.size(); ++m) {
      const double warning_hours = defs[m].revocation.warning_hours;
      if (warning_hours <= 0.0) continue;
      const sim::SimTime warning = sim::SimTime::from_hours(warning_hours);
      std::unordered_map<std::size_t, sim::SimTime> prev_event_at;
      for (const transient::RevocationEvent& rev : plan.markets[m].revocations) {
        if (rev.revoke) {
          sim::SimTime warn_at = rev.at - warning;
          const auto prev = prev_event_at.find(rev.server);
          if (prev != prev_event_at.end() && warn_at < prev->second) {
            warn_at = prev->second;
          }
          if (warn_at < sim::SimTime{}) warn_at = sim::SimTime{};
          if (warn_at < rev.at) {
            events.push_back({warn_at, kRankWarn, rev.server, rev.at});
          }
        }
        prev_event_at[rev.server] = rev.at;
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const PlanEvent& a, const PlanEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.server < b.server;
            });
  return events;
}

/// Drives `inputs` through the layers' public functions with the
/// simulator's event order (arrivals, departures, plan events, deferral
/// retries, re-optimizations and the once-per-tick flush), recording a span
/// around every call.
LoopReport traced_loop(SimInputs& inputs, SpanRecorder& spans) {
  const sc::SimConfig& config = inputs.config;
  const bool streaming = inputs.kind == Kind::Replay;
  const sim::SimTime horizon =
      streaming ? inputs.stream->horizon()
                : sc::TraceDrivenSimulator::horizon_of(inputs.records);
  if (config.partitioned || !config.policies.empty() ||
      config.telemetry_bus != nullptr) {
    throw std::invalid_argument(
        "traced loop: partitioned fleets, policy sets and telemetry are not "
        "reproduced");
  }
  LoopReport report;
  const std::int64_t loop_start = steady_now_ns();

  std::optional<transient::CapacityPlan> plan;
  if (config.market_enabled) {
    const std::int64_t start = steady_now_ns();
    plan = transient::TransientMarketEngine(config.market)
               .plan(config.server_count, horizon, /*deflatable_pools=*/4);
    report.plan_s = seconds_since(start);
  }
  if (plan && config.control.regime_shift.active()) {
    control::apply_regime_shift(*plan, config.market,
                                config.control.regime_shift, horizon);
  }

  cluster::ShardedClusterConfig fleet;
  fleet.cluster.server_count = config.server_count;
  fleet.cluster.server_capacity = config.server_capacity;
  fleet.cluster.policy = config.policy;
  fleet.cluster.mode = config.mode;
  fleet.cluster.mechanism = config.mechanism;
  fleet.cluster.placement = config.placement;
  fleet.cluster.reinflate_on_departure = config.reinflate_on_departure;
  fleet.shard_count = config.shard_count;
  fleet.selection = config.shard_selection;
  fleet.routing_seed = config.shard_routing_seed;
  fleet.worker_threads = config.worker_threads;
  TracedManager manager(cluster::make_cluster_manager(fleet), &spans);

  const bool timed = config.market_enabled &&
                     config.mode == cluster::ReclamationMode::Deflation &&
                     config.migration.model.bandwidth_mib_per_sec > 0.0;
  std::optional<cluster::MigrationEngine> engine;
  if (timed) engine.emplace(config.migration, manager);

  std::unique_ptr<cluster::AdmissionController> admission;
  {
    cluster::AdmissionConfig admission_config = config.admission;
    std::vector<const transient::PriceTrace*> traces;
    if (plan) {
      for (const transient::MarketPlan& market : plan->markets) {
        traces.push_back(&market.prices);
      }
      if (admission_config.policy ==
              cluster::AdmissionPolicyKind::BidOptimized &&
          !plan->class_ceilings.empty()) {
        admission_config.class_ceilings = plan->class_ceilings;
      }
    }
    admission = cluster::make_admission_controller(
        std::move(admission_config), manager,
        cluster::PriceFeed(std::move(traces), on_demand_rate(config)));
  }

  std::unique_ptr<control::FleetController> controller;
  sim::SimTime next_reopt = sim::SimTime::max();
  if (config.control.enabled && plan && !plan->markets.empty()) {
    controller = std::make_unique<control::FleetController>(
        config.control, config.market, *plan, horizon, timed);
    if (config.control.reopt_active()) {
      const sim::SimTime window =
          sim::SimTime::from_hours(config.control.reopt_hours);
      if (window > sim::SimTime{} && window < horizon) next_reopt = window;
    }
  }

  const auto next_id = spans.intern("trace.next");
  const auto decide_id = spans.intern("admission.decide");
  const auto drain_id = spans.intern("admission.drain");
  const auto warn_id = spans.intern("migration.begin_warning");
  const auto finish_id = spans.intern("migration.finish_revocation");
  const auto reopt_id = spans.intern("control.reoptimize");

  struct Vm {
    hv::VmSpec spec;
    bool running = false;
  };
  std::unordered_map<std::uint64_t, Vm> active;
  manager.subscribe_preemption([&active](const hv::VmSpec& spec,
                                         std::uint64_t /*host*/) {
    const auto it = active.find(spec.id);
    if (it != active.end()) it->second.running = false;
  });

  std::vector<PlanEvent> plan_queue;
  if (plan) plan_queue = plan_events(*plan, config, timed);
  std::size_t next_plan = 0;

  using TimedId = std::pair<sim::SimTime, std::uint64_t>;
  std::priority_queue<TimedId, std::vector<TimedId>, std::greater<TimedId>>
      ends;
  std::priority_queue<sim::SimTime, std::vector<sim::SimTime>,
                      std::greater<sim::SimTime>>
      cutovers;
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> suspended;

  // Arrivals in (start, id) order: the stream's own order, or the record
  // vector sorted as the simulator's event vector sorts it.
  std::vector<std::size_t> order;
  std::size_t next_record = 0;
  std::optional<trace::VmRecord> next_arrival;
  const auto pull = [&]() {
    const SpanRecorder::Scope span(&spans, next_id);
    next_arrival = inputs.stream->next();
  };
  if (streaming) {
    pull();
  } else {
    order.resize(inputs.records.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return inputs.records[a].start < inputs.records[b].start;
                     });
  }
  const auto arrival_at = [&]() -> std::optional<sim::SimTime> {
    if (streaming) {
      if (!next_arrival) return std::nullopt;
      return next_arrival->start;
    }
    if (next_record >= order.size()) return std::nullopt;
    return inputs.records[order[next_record]].start;
  };

  sim::SimTime now;
  const auto note_queue = [&]() {
    report.queue_peak =
        std::max<std::uint64_t>(report.queue_peak, admission->queued());
  };
  const auto track = [&](const cluster::MigrationRecord& record) {
    const auto it = active.find(record.spec.id);
    if (it == active.end() || !it->second.running) return;
    cutovers.push(record.cutover_begin);
    cutovers.push(record.cutover_end);
  };
  const auto apply = [](Vm& vm, const cluster::AdmissionDecision& decision) {
    if (decision.admitted()) vm.running = true;
  };

  // Like the simulation's, the loop's profiler rows cover the event loop,
  // not the construction above.
  deflate::util::Profiler::instance().reset();

  while (true) {
    int source = -1;  // 0 end, 1 plan, 2 arrival, 3 reopt
    sim::SimTime at;
    int rank = 0;
    const auto consider = [&](sim::SimTime t, int k, int s) {
      if (source < 0 || t < at || (t == at && k < rank)) {
        at = t;
        rank = k;
        source = s;
      }
    };
    if (!ends.empty()) consider(ends.top().first, kRankEnd, 0);
    if (next_plan < plan_queue.size()) {
      consider(plan_queue[next_plan].at, plan_queue[next_plan].kind, 1);
    }
    if (const auto arrival = arrival_at()) consider(*arrival, kRankStart, 2);
    if (next_reopt != sim::SimTime::max()) consider(next_reopt, kRankReopt, 3);
    if (source < 0 && cutovers.empty() && !admission->next_retry()) break;

    const sim::SimTime next_static = source >= 0 ? at : sim::SimTime::max();
    const bool retry_before_static = source < 0 || rank == kRankStart;
    if (const auto retry = admission->next_retry();
        retry &&
        (*retry < next_static ||
         (*retry == next_static && retry_before_static)) &&
        (cutovers.empty() || *retry <= cutovers.top())) {
      now = std::max(now, *retry);
      std::vector<cluster::AdmissionController::Resolved> resolved;
      {
        const SpanRecorder::Scope span(&spans, drain_id);
        resolved = admission->drain(now);
      }
      note_queue();
      for (const auto& entry : resolved) {
        const auto it = active.find(entry.request.spec.id);
        if (it != active.end()) apply(it->second, entry.decision);
      }
      continue;
    }
    if (!cutovers.empty() && (source < 0 || cutovers.top() <= next_static)) {
      now = std::max(now, cutovers.top());
      cutovers.pop();
      continue;
    }

    if (at != now) manager.flush_views();
    now = at;
    switch (source) {
      case 0: {
        const std::uint64_t id = ends.top().second;
        ends.pop();
        const auto it = active.find(id);
        if (it == active.end()) break;
        if (it->second.running) manager.remove_vm(id);
        active.erase(it);
        break;
      }
      case 1: {
        const PlanEvent event = plan_queue[next_plan++];
        if (event.kind == kRankRestore) {
          manager.restore_server(event.server);
        } else if (event.kind == kRankWarn) {
          cluster::WarningResult warned;
          {
            const SpanRecorder::Scope span(&spans, warn_id);
            warned = engine->begin_warning(event.server, now, event.deadline);
          }
          for (const auto& record : warned.started) track(record);
          for (const hv::VmSpec& spec : warned.suspended) {
            suspended[event.server].push_back(spec.id);
          }
        } else if (!timed) {
          manager.revoke_server(event.server);
        } else {
          std::vector<hv::VmSpec> survivors;
          if (const auto it = suspended.find(event.server);
              it != suspended.end()) {
            for (const std::uint64_t id : it->second) {
              const auto vm = active.find(id);
              if (vm != active.end() && vm->second.running) {
                survivors.push_back(vm->second.spec);
              }
            }
            suspended.erase(it);
          }
          cluster::RevocationFinish finish;
          {
            const SpanRecorder::Scope span(&spans, finish_id);
            finish = engine->finish_revocation(event.server, now, survivors);
          }
          for (const auto& record : finish.restored) track(record);
          for (const hv::VmSpec& spec : finish.killed) {
            const auto vm = active.find(spec.id);
            if (vm != active.end()) vm->second.running = false;
          }
        }
        break;
      }
      case 2: {
        trace::VmRecord record;
        if (streaming) {
          record = std::move(*next_arrival);
          pull();
        } else {
          record = inputs.records[order[next_record++]];
        }
        const auto [it, inserted] = active.try_emplace(record.id);
        if (!inserted) {
          throw std::runtime_error("traced loop: duplicate vm id " +
                                   std::to_string(record.id));
        }
        Vm& vm = it->second;
        vm.spec = record.to_spec();
        ends.push({record.end, record.id});
        cluster::AdmissionRequest request =
            cluster::AdmissionRequest::from_spec(vm.spec, now);
        const sim::SimTime latest =
            record.end - sim::SimTime::from_micros(1);
        const sim::SimTime window =
            now + sim::SimTime::from_hours(
                      std::max(0.0, admission->config().max_defer_hours));
        request.deadline = std::max(now, std::min(window, latest));
        cluster::AdmissionDecision decision;
        {
          const SpanRecorder::Scope span(&spans, decide_id);
          decision = admission->decide(request, now);
        }
        note_queue();
        apply(vm, decision);
        break;
      }
      case 3: {
        control::ReoptResult result;
        {
          const SpanRecorder::Scope span(&spans, reopt_id);
          result = controller->reoptimize(now);
        }
        if (result.ceilings_updated) {
          admission->set_class_ceilings(result.class_ceilings);
        }
        if (result.schedule_rewritten) {
          plan_queue.resize(next_plan);
          for (const control::PlanEvent& event : result.future_events) {
            int kind = kRankRevoke;
            if (event.kind == control::PlanEvent::Kind::Restore) {
              kind = kRankRestore;
            } else if (event.kind == control::PlanEvent::Kind::Warn) {
              kind = kRankWarn;
            }
            plan_queue.push_back({event.at, kind, event.server, event.deadline});
          }
        }
        next_reopt += sim::SimTime::from_hours(config.control.reopt_hours);
        if (next_reopt >= horizon) next_reopt = sim::SimTime::max();
        break;
      }
      default: break;
    }
  }

  report.wall_s = seconds_since(loop_start);
  report.admission = admission->stats();
  report.cluster_stats = admission->cluster_stats();
  if (engine) report.migration = engine->stats();
  if (controller) report.moves = controller->total_moves();
  return report;
}

// --- runs -------------------------------------------------------------------------

/// One timed simulation.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  sc::SimMetrics metrics;
  std::uint64_t digest = 0;
  LatencySummary decisions;
  double decision_p99 = 0.0;
  std::unordered_map<std::string, ProfileRow> profile;
};

/// One simulation; `worker_threads` (0 = the workload's own) overrides the
/// placement pool size.
Rep timed_rep(Kind kind, std::uint64_t seed, sc::SimConfig* config_out,
              std::size_t worker_threads = 0) {
  Rep rep;
  const std::int64_t setup_start = steady_now_ns();
  SimInputs inputs = build_inputs(kind, seed);
  inputs.config.policies.admission.name =
      kind == Kind::Replay ? kTimedAdmitAll : kTimedBidOpt;
  if (worker_threads != 0) inputs.config.worker_threads = worker_threads;
  const auto simulator = make_simulator(inputs);
  rep.setup_s = seconds_since(setup_start);
  if (config_out != nullptr) *config_out = inputs.config;

  std::vector<double> samples;
  samples.reserve(kind == Kind::Replay ? kReplayVms : 2 * kMarketVms);
  set_decision_sink(&samples);
  deflate::util::Profiler::instance().reset();
  const double cpu_start = process_cpu_seconds();
  const std::int64_t run_start = steady_now_ns();
  rep.metrics = simulator->run();
  rep.run_s = seconds_since(run_start);
  rep.cpu_s = process_cpu_seconds() - cpu_start;
  set_decision_sink(nullptr);
  rep.profile = profile_rows();
  rep.digest = sim_digest(rep.metrics);
  std::sort(samples.begin(), samples.end());
  rep.decision_p99 = percentile_sorted(samples, 99.0);
  rep.decisions = summarize(std::move(samples));
  return rep;
}

void print_rep(std::size_t index, const Rep& rep) {
  std::cout << "rep " << index << ": setup " << std::fixed
            << std::setprecision(3) << rep.setup_s << " s, run " << rep.run_s
            << " s, " << rep.metrics.vm_count << " VMs, digest "
            << hex(rep.digest) << ", decisions "
            << describe(rep.decisions, "us") << "\n"
            << std::defaultfloat;
}

void print_outcome(const sc::SimMetrics& m, std::size_t servers) {
  std::cout << "outcome: " << servers << " servers, " << m.vm_count
            << " VMs (" << m.deflatable_count << " deflatable), "
            << m.rejections << " rejections, " << m.preemptions
            << " preemptions, " << m.revocations << " revocations, "
            << m.revocation_migrations << " revocation migrations ("
            << m.live_migrations << " live), " << m.revocation_kills
            << " kills, " << m.admission_deferrals << " deferrals, "
            << m.control_reopts << " reopts, " << m.control_moves
            << " moves, throughput loss " << 100.0 * m.throughput_loss
            << "%, overcommit " << 100.0 * m.achieved_overcommit << "%\n";
}

void run_untraced(Kind kind, const RunOptions& options, Result& result) {
  const std::int64_t start = steady_now_ns();
  std::vector<Rep> reps;
  std::vector<double> setups;
  sc::SimConfig config;
  // At least two simulations, so the digest check compares two runs of the
  // same inputs; more while the next one still fits the time budget.
  while (true) {
    reps.push_back(timed_rep(kind, options.seed, &config));
    setups.push_back(reps.back().setup_s);
    print_rep(reps.size() - 1, reps.back());
    const double elapsed = seconds_since(start);
    const double per_rep = elapsed / static_cast<double>(reps.size());
    if (reps.size() >= 2 && elapsed + per_rep > options.seconds) break;
  }
  // Set-up is timed several times even when few simulations fit.
  while (setups.size() < kSetupSamples) {
    const std::int64_t setup_start = steady_now_ns();
    SimInputs inputs = build_inputs(kind, options.seed);
    const auto simulator = make_simulator(inputs);
    setups.push_back(seconds_since(setup_start));
  }

  const Rep& first = reps.front();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> vms_rate, decision_rate, p50, p99;
  for (const Rep& rep : reps) {
    attempted += rep.metrics.vm_count;
    if (rep.digest != first.digest) {
      failed += rep.metrics.vm_count;
      result.fail("SimMetrics digest " + hex(rep.digest) +
                  " differs from the first run's " + hex(first.digest));
    }
    const auto vms = static_cast<double>(rep.metrics.vm_count);
    vms_rate.push_back(vms / rep.run_s);
    decision_rate.push_back(
        (vms + static_cast<double>(rep.metrics.admission_deferrals)) /
        rep.run_s);
    p50.push_back(rep.decisions.median);
    p99.push_back(rep.decision_p99);
  }
  const sc::SimMetrics& m = first.metrics;
  if (m.vm_count != (kind == Kind::Replay ? kReplayVms : kMarketVms)) {
    result.fail("the simulation saw " + std::to_string(m.vm_count) +
                " VMs, expected the whole trace");
  }
  if (kind == Kind::Replay &&
      config.server_count <= 1024 * config.shard_count) {
    result.fail("replay fleet of " + std::to_string(config.server_count) +
                " servers leaves a shard at or below 1,024 servers");
  }
  if (!percentile_supported(first.decisions.count, 99.0)) {
    result.fail("too few decisions for a p99");
  }
  print_outcome(m, config.server_count);
  std::cout << "digest: " << hex(first.digest) << " identical across "
            << reps.size() << " runs\n";

  result.attempted = attempted;
  result.failed = failed;
  result.set("setup_s", median(setups));
  result.set("peak_rss_mib", peak_rss_mib());
  result.set("vms_per_s", median(vms_rate));
  result.set("decisions_per_s", median(decision_rate));
  result.set("decision_p50_us", median(p50));
  result.set("decision_p99_us", median(p99));
  result.set("throughput_loss_pct", 100.0 * m.throughput_loss);
  // Zero on a healthy replay, so reported beside the JSON result; the
  // unserved demand they stand for is billed into effective_cost.
  Result::info("failed_vm_pct",
               share_pct(m.rejections + m.preemptions, m.vm_count), "%");
  Result::info("failed_request_pct", share_pct(m.rejections, m.vm_count), "%");
  result.set("effective_cost", effective_cost(m, config));
}

void run_traced(Kind kind, const RunOptions& options, Result& result) {
  // 1. An untraced simulation of the same inputs: the profiler rows, CPU
  //    utilization and the call counts the traced loop is compared with.
  sc::SimConfig config;
  const Rep reference = timed_rep(kind, options.seed, &config);
  print_rep(0, reference);
  if (kind == Kind::Replay) {
    // The shared placement pool, on every CPU the process may use: its
    // cost against the serial run, and thread-count invariance.
    unpin_cpus();
    const Rep pooled = timed_rep(kind, options.seed, nullptr, kPoolThreads);
    pin_to_one_cpu();
    std::cout << "pool check: worker_threads=" << kPoolThreads << " run() "
              << pooled.run_s << " s vs " << reference.run_s
              << " s serial (x" << pooled.run_s / reference.run_s
              << "), sharded.place mean "
              << row_of(pooled.profile, "sharded.place").mean_us()
              << " us, sharded.flush_views mean "
              << row_of(pooled.profile, "sharded.flush_views").mean_us()
              << " us, CPU utilization " << pooled.cpu_s / pooled.run_s
              << "\n";
    if (pooled.digest != reference.digest) {
      result.fail("worker_threads=" + std::to_string(kPoolThreads) +
                  " changed the SimMetrics digest");
    }
  }
  const auto& rows = reference.profile;
  const bool sharded = config.shard_count > 1;
  // Outermost profiled phases: sharded.* wrap the cluster.* rows on a
  // sharded fleet; on a flat fleet cluster.flush_views also runs inside
  // cluster.place, so only place and revoke are outermost there.
  const double profiled =
      sharded ? row_of(rows, "sharded.place").seconds +
                    row_of(rows, "sharded.flush_views").seconds
              : row_of(rows, "cluster.place").seconds +
                    row_of(rows, "cluster.revoke").seconds;

  // 2. The traced loop over freshly built, identical inputs.
  SimInputs inputs = build_inputs(kind, options.seed);
  SpanRecorder spans;
  const LoopReport loop = traced_loop(inputs, spans);
  const ProfileRows loop_rows = profile_rows();
  const SpanStats stats = spans.stats();

  std::cout << "profiler rows (untraced simulation | traced loop):\n";
  bool same_counts = true;
  for (const char* name :
       {"sharded.place", "sharded.flush_views", "cluster.place",
        "cluster.flush_views", "cluster.revoke"}) {
    const ProfileRow a = row_of(rows, name);
    const ProfileRow b = row_of(loop_rows, name);
    same_counts = same_counts && a.calls == b.calls;
    std::cout << "  " << name << ": " << a.calls << " calls, mean "
              << a.mean_us() << " us, total " << a.seconds << " s | "
              << b.calls << " calls, total " << b.seconds << " s\n";
  }
  std::cout << "reproduction: profiler call counts "
            << (same_counts ? "identical" : "DIFFER") << "; rejections "
            << reference.metrics.rejections << " | "
            << loop.cluster_stats.rejections << ", revocations "
            << reference.metrics.revocations << " | "
            << loop.cluster_stats.revocations << "\n";
  for (const std::string& step : unreproduced_steps()) {
    std::cout << "not reproduced: " << step << "\n";
  }
  std::cout << "traced loop: " << std::fixed << std::setprecision(3)
            << loop.wall_s << " s vs " << reference.run_s
            << " s untraced run()\n"
            << std::defaultfloat;
  print_layers(stats);
  std::cout << "layer sharded.place: mean "
            << row_of(rows, "sharded.place").mean_us() << " us, total "
            << row_of(rows, "sharded.place").seconds << " s\n"
            << "layer sharded.flush_views: mean "
            << row_of(rows, "sharded.flush_views").mean_us() << " us, total "
            << row_of(rows, "sharded.flush_views").seconds << " s\n"
            << "layer simcluster.unattributed_s: "
            << std::max(0.0, reference.run_s - profiled) << " s\n";

  const auto& mig = loop.migration;
  const std::uint64_t moved =
      mig.live_migrations + mig.checkpoint_restores + mig.checkpoint_kills;
  result.attempted = reference.metrics.vm_count;
  result.failed = 0;
  set_profile_metrics(rows, sharded, reference.cpu_s / reference.run_s,
                      result);
  set_span_metrics(stats, result);
  result.set("migration.live_share",
             moved == 0 ? 0.0
                        : static_cast<double>(mig.live_migrations) /
                              static_cast<double>(moved));
  result.set("control.moves", static_cast<double>(loop.moves));
  result.set("admission.deferred_share",
             loop.admission.requests == 0
                 ? 0.0
                 : static_cast<double>(loop.admission.deferrals) /
                       static_cast<double>(loop.admission.requests));
  result.set("admission.queue_peak", static_cast<double>(loop.queue_peak));
  if (kind == Kind::Market) {
    // The admission service is not a declared workload (its loopback
    // timings swing too much between runs to bound), so its net layer is
    // measured here, on the workload that runs admission hardest.
    std::cout << "net layer: the service workload's traced sessions\n";
    measure_net_layer_for(options, result);
  } else {
    result.set("server.frames_per_request", 0.0);
  }
  result.set("trace.index_build_s", inputs.source_build_s);
  result.set("transient.plan_s", loop.plan_s);

  if (loop.admission.requests != reference.metrics.vm_count) {
    result.fail("the traced loop offered " +
                std::to_string(loop.admission.requests) + " VMs, the "
                "simulation " + std::to_string(reference.metrics.vm_count));
  }
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".csv";
  if (!spans.write_csv(path, {host_record(options)})) {
    result.fail("cannot write " + path);
  } else {
    std::cout << "spans: " << spans.spans().size() << " written to " << path
              << "\n";
  }
}

}  // namespace

void register_timed_admission_policies() {
  static const bool registered = [] {
    auto& registry = cluster::AdmissionRegistry::instance();
    registry.add(kTimedAdmitAll, "admit-all, timed per evaluation",
                 timed_factory<cluster::AdmissionController>(
                     cluster::AdmissionPolicyKind::AdmitAll));
    registry.add(kTimedBidOpt, "bid-optimized thresholds, timed per evaluation",
                 timed_factory<cluster::PriceThresholdAdmission>(
                     cluster::AdmissionPolicyKind::BidOptimized));
    return true;
  }();
  (void)registered;
}

void set_decision_sink(std::vector<double>* sink) { g_decision_sink = sink; }

std::uint64_t sim_digest(const sc::SimMetrics& m) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  const auto u = [&mix](std::uint64_t v) { mix(&v, sizeof(v)); };
  const auto d = [&mix](double v) { mix(&v, sizeof(v)); };
  u(m.reclamation_attempts);
  u(m.reclamation_failures);
  u(m.preemptions);
  u(m.rejections);
  d(m.failure_probability);
  d(m.failure_rate_per_attempt);
  d(m.preemption_probability);
  d(m.throughput_loss);
  d(m.revenue.od_committed_core_hours);
  d(m.revenue.df_committed_core_hours);
  d(m.revenue.df_allocated_core_hours);
  d(m.revenue.df_priority_committed_core_hours);
  u(m.revocations);
  u(m.revocation_migrations);
  u(m.revocation_kills);
  u(m.admission_deferrals);
  u(m.admission_retries);
  u(m.admission_expired);
  d(m.admission_delay_hours);
  d(m.unserved_core_hours);
  u(m.live_migrations);
  u(m.checkpoint_restores);
  u(m.checkpoint_kills);
  d(m.migration_downtime_hours);
  d(m.transient_server_share);
  const transient::CostReport& c = m.cost;
  d(c.on_demand_core_hours);
  d(c.transient_core_hours);
  d(c.on_demand_cost);
  d(c.transient_cost);
  d(c.all_on_demand_cost);
  for (const auto& market : c.per_market) {
    mix(market.name.data(), market.name.size());
    u(market.servers);
    d(market.core_hours);
    d(market.cost);
  }
  d(c.migration_downtime_core_hours);
  d(c.migration_downtime_cost);
  d(c.admission_unserved_core_hours);
  d(c.admission_unserved_cost);
  d(m.portfolio_expected_cost);
  u(m.control_reopts);
  u(m.control_moves);
  d(m.achieved_overcommit);
  d(m.mean_cpu_deflation);
  u(m.vm_count);
  u(m.deflatable_count);
  return hash;
}

sc::SimConfig replay_config(std::size_t servers) {
  sc::SimConfig config;
  config.server_count = servers;
  config.server_capacity = kServerCapacity;
  config.shard_count = kReplayShards;
  config.shard_selection = cluster::ShardSelectionPolicy::PowerOfTwoChoices;
  config.shard_routing_seed = 42;
  config.worker_threads = kReplayThreads;
  config.market_enabled = true;
  config.market.seed = kReplayMarketSeed;
  config.market.revocation.model = transient::RevocationModel::Poisson;
  config.admission.policy = cluster::AdmissionPolicyKind::AdmitAll;
  return config;  // bandwidth 0: instant migration
}

sc::SimConfig market_config(std::size_t servers) {
  sc::SimConfig config;
  config.server_count = servers;
  config.server_capacity = kServerCapacity;
  config.shard_count = 1;
  config.worker_threads = 1;
  config.market_enabled = true;
  config.market.seed = kMarketMarketSeed;
  config.market.revocation.model = transient::RevocationModel::Poisson;
  config.market.revocation.poisson_rate_per_hour = 1.0 / 12.0;
  config.market.revocation.warning_hours = 120.0 / 3600.0;
  config.market.portfolio.on_demand_floor = 0.2;
  // Provider-wide price spikes lift every market at once, so the cheapest
  // quote crosses the bid-optimized ceilings and admission defers.
  config.market.common_shock_rate_per_hour = 1.0 / 12.0;
  config.market.common_shock_multiplier = 6.0;
  config.market.optimize_bids = true;
  config.market.replicate_markets(3, 0.45);
  config.migration.model.bandwidth_mib_per_sec = 256.0;
  config.migration.strategy_name = "hybrid";
  config.admission.policy = cluster::AdmissionPolicyKind::BidOptimized;

  // bench/scenario_reopt's regime shift: from 28 h on, spot-0's price
  // nearly triples, its revocation rate jumps to one every two hours and
  // the cross-zone correlation weakens.
  control::RegimeShiftConfig shift;
  shift.at_hours = 28.0;
  shift.after = config.market;
  shift.after.seed = 4242;
  shift.after.markets[0].price.mean_price = 0.7;
  shift.after.markets[0].price.shock_rate_per_hour = 1.0 / 8.0;
  shift.after.markets[0].revocation.poisson_rate_per_hour = 1.0 / 2.0;
  shift.after.correlation =
      transient::CorrelatedPriceModel::uniform_correlation(3, 0.15);
  config.control.regime_shift = shift;
  config.control.enabled = true;
  config.control.reopt_hours = 6.0;
  config.control.max_moves_per_window = 6;
  config.control.forecast = "windowed";
  return config;
}

void run_sim_workload(const RunOptions& options, Result& result) {
  const Kind kind = options.workload == "replay" ? Kind::Replay : Kind::Market;
  register_timed_admission_policies();
  if (options.trace) {
    run_traced(kind, options, result);
  } else {
    run_untraced(kind, options, result);
  }
}

}  // namespace perfbench
