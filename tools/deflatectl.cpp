// deflatectl — command-line driver for the deflate library.
//
//   deflatectl trace generate --vms 10000 --hours 72 --seed 7 --out t.csv
//   deflatectl trace stats --in t.csv [--deflation 0.5]
//   deflatectl simulate --in t.csv --overcommit 0.5 --policy proportional
//               [--mode deflation|preemption] [--mechanism hybrid|...]
//               [--placement fitness|first-fit|best-fit|worst-fit]
//               [--partitioned] [--no-reinflate]
//               [--shards N] [--shard-policy p2c|least-loaded|round-robin]
//   deflatectl feasibility --in t.csv
//   deflatectl revoke-sim --in t.csv [--servers N] [--model poisson|temporal|price]
//               [--rate R] [--bid B] [--no-portfolio] [--od-share S]
//               [--floor F] [--risk A] [--mode deflation|preemption]
//               [--partitioned] [--seed S]
//               [--markets K] [--correlation R] [--common-shock-rate R]
//               [--shards N] [--shard-policy p2c|least-loaded|round-robin]
//               [--warning-secs W] [--migration-bandwidth B]
//               [--migration-dirty-rate D] [--migration-contention]
//               [--migration-strategy migrate|checkpoint|deflate|hybrid]
//               [--admission admit-all|price|bid-opt] [--price-ceiling C]
//               [--defer-hours H] [--bid-opt]
//               [--reopt-hours H] [--forecast static|ewma|windowed]
//               [--reopt-max-moves N]
//   deflatectl connect --port P [--vms N] [--batch B] [--hours H]
//               [--seed S] [--telemetry N] [--shutdown]
//   deflatectl replay --capture FILE
//   deflatectl replay-trace [--source azure|alibaba|capture] [--vms N]
//               [--hours H] [--seed S] [--rate R] [--duration-scale D]
//               [--capture FILE] [--servers N | --overcommit O] [--shards N]
//               [--shard-policy p2c|least-loaded|round-robin]
//               [--reopt-hours H] [--forecast F] [--reopt-max-moves N]
//   deflatectl list-policies
//
// `list-policies` prints every policy registry surface (admission,
// placement, shard-selection, migration, revocation, control) with its
// registered policies, aliases and tunable parameters — including
// policies added by link-time plugins (src/policy/registry.hpp).
//
// --reopt-hours/--forecast/--reopt-max-moves enable the online control
// plane (src/control): any of them turns the rolling re-optimization loop
// on, re-planning every --reopt-hours of simulated time with the named
// forecast policy and at most --reopt-max-moves cross-market server
// moves per window. Under replay-trace (no market plan) the flags are
// accepted but the controller is inert — there is nothing to
// re-optimize. --telemetry N subscribes the connect session to one
// aggregate UtilizationReport frame per N admission decisions.
//
// `connect` drives a running deflated daemon (tools/deflated.cpp) through
// the batching client (src/net/client.hpp) and prints the decision
// breakdown; `replay` re-runs a captured admission session
// (src/net/capture.hpp) and fails on any decision divergence.
// `replay-trace` streams a generated (azure/alibaba) or captured arrival
// trace through the full cluster simulation without ever materializing the
// fleet (src/trace/replay.hpp): --rate multiplies the offered arrival
// rate, --duration-scale stretches the horizon.
//
// --shards > 1 splits the fleet into routed shards
// (src/cluster/sharded_manager.hpp); 1 (default) is the flat fleet.
// --markets > 1 spreads the transient fleet across K correlated spot
// markets (pairwise innovation correlation --correlation, provider-wide
// crunches at --common-shock-rate per hour), each market carrying the
// configured revocation model/bid with its own revocation stream; the
// portfolio sizes the per-market pools and the cost table gains a
// per-market breakdown.
// --migration-bandwidth > 0 (MiB/s) turns on *timed* revocations
// (src/cluster/migration.hpp): each revocation is announced
// --warning-secs ahead, VMs stream off the doomed server within that
// window, and stop-and-copy/checkpoint downtime is billed into the fleet
// cost. 0 (default) is the instant sentinel — the legacy free re-place.
// --migration-contention makes N simultaneous streams off one server
// share the link (each sees bandwidth / N).
// --migration-strategy: migrate = full-footprint pre-copy, kill on a
// missed deadline; deflate = stream the deflated footprint, kill on a
// miss; hybrid (default) = deflated transfer + checkpoint-relaunch
// fallback.
// --admission selects the Admission API v2 policy (src/cluster/
// admission.hpp): price defers deflatable launches while the spot quote
// exceeds --price-ceiling (deferrals retried when the price drops,
// expired after --defer-hours); bid-opt derives per-class ceilings from
// the bid optimizer (so --price-ceiling conflicts with it) and implies
// --bid-opt. --bid-opt alone replaces the
// hand-set market bids with per-class optimized ones
// (src/transient/bidding.hpp) without changing the admission policy.
//
// Invalid or conflicting flags fail fast with a one-line error (exit 1):
// unknown flags, malformed numbers, out-of-range values, --correlation
// without --markets >= 2, negative bandwidths, and similar mistakes are
// never silently replaced by defaults.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime errors.
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/feasibility.hpp"
#include "control/forecast.hpp"
#include "net/capture.hpp"
#include "net/client.hpp"
#include "policy/catalog.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "trace/replay.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace deflate;
using util::CliArgs;
using util::CliValidator;

using namespace util::flag_limits;

int usage() {
  std::cerr <<
      "usage:\n"
      "  deflatectl trace generate --vms N --hours H --seed S --out FILE\n"
      "  deflatectl trace stats --in FILE [--deflation D]\n"
      "  deflatectl simulate --in FILE --overcommit O [--policy P] [--mode M]\n"
      "             [--mechanism K] [--placement S] [--partitioned]\n"
      "             [--no-reinflate] [--servers N] [--shards N]\n"
      "             [--shard-policy p2c|least-loaded|round-robin]\n"
      "  deflatectl feasibility --in FILE\n"
      "  deflatectl revoke-sim --in FILE [--servers N] [--model M] [--rate R]\n"
      "             [--bid B] [--no-portfolio] [--od-share S] [--floor F]\n"
      "             [--risk A] [--mode deflation|preemption] [--partitioned]\n"
      "             [--seed S] [--markets K] [--correlation R]\n"
      "             [--common-shock-rate R] [--shards N]\n"
      "             [--shard-policy p2c|least-loaded|round-robin]\n"
      "             [--warning-secs W] [--migration-bandwidth MiB/s]\n"
      "             [--migration-dirty-rate MiB/s] [--migration-contention]\n"
      "             [--migration-strategy migrate|checkpoint|deflate|hybrid]\n"
      "             [--admission admit-all|price|bid-opt] [--price-ceiling C]\n"
      "             [--defer-hours H] [--bid-opt]\n"
      "             [--reopt-hours H] [--forecast static|ewma|windowed]\n"
      "             [--reopt-max-moves N]\n"
      "  deflatectl connect --port P [--vms N] [--batch B] [--hours H]\n"
      "             [--seed S] [--telemetry N] [--shutdown]\n"
      "  deflatectl replay --capture FILE\n"
      "  deflatectl replay-trace [--source azure|alibaba|capture] [--vms N]\n"
      "             [--hours H] [--seed S] [--rate R] [--duration-scale D]\n"
      "             [--capture FILE] [--servers N | --overcommit O] [--shards N]\n"
      "             [--shard-policy p2c|least-loaded|round-robin]\n"
      "             [--reopt-hours H] [--forecast F] [--reopt-max-moves N]\n"
      "  deflatectl list-policies\n";
  return 1;
}

/// Prints every validation error on its own line; true when the flag set
/// is invalid (caller returns exit 1).
bool report_errors(const CliValidator& validator) {
  for (const std::string& error : validator.errors()) {
    std::cerr << "error: " << error << "\n";
  }
  return !validator.ok();
}

int flag_error(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

/// One-line "flag --X: unknown value 'v' (expected a|b|c)" diagnostic
/// with the choice list pulled from the surface's registry — plugin
/// policies appear automatically.
template <typename Surface>
int unknown_policy_error(const std::string& flag, const std::string& value) {
  return flag_error("flag --" + flag + ": unknown value '" + value +
                    "' (expected " + policy::joined_policy_names<Surface>() +
                    ")");
}

/// The registry primary name of the `Surface` policy flag --`flag` names
/// (aliases accepted; `fallback` when the flag is absent), or nullopt
/// when the registry does not know it. Plugin policies parse like
/// builtins.
template <typename Surface>
std::optional<std::string> policy_flag(const CliArgs& args,
                                       const std::string& flag,
                                       const std::string& fallback) {
  const auto* entry = policy::PolicyRegistry<Surface>::instance().find(
      args.get(flag, fallback));
  if (entry == nullptr) return std::nullopt;
  return entry->name;
}

std::optional<core::PolicyKind> parse_policy(const std::string& name) {
  if (name == "proportional") return core::PolicyKind::Proportional;
  if (name == "priority") return core::PolicyKind::Priority;
  if (name == "priority-nomin") return core::PolicyKind::PriorityNoMin;
  if (name == "deterministic") return core::PolicyKind::Deterministic;
  return std::nullopt;
}

std::optional<mech::MechanismKind> parse_mechanism(const std::string& name) {
  if (name == "hybrid") return mech::MechanismKind::Hybrid;
  if (name == "transparent") return mech::MechanismKind::Transparent;
  if (name == "explicit") return mech::MechanismKind::Explicit;
  if (name == "balloon") return mech::MechanismKind::Balloon;
  return std::nullopt;
}

/// Applies the shared online-control flags (--reopt-hours, --forecast,
/// --reopt-max-moves): any of them enables the controller. Returns 0, or
/// the usage-error exit code for an unknown forecast name.
int apply_control_flags(const CliArgs& args, simcluster::SimConfig& config) {
  if (args.has("forecast")) {
    const auto forecast =
        policy_flag<control::ControlSurface>(args, "forecast", "");
    if (!forecast) {
      return unknown_policy_error<control::ControlSurface>(
          "forecast", args.get("forecast", ""));
    }
    config.control.forecast = *forecast;
  }
  if (args.has("reopt-hours") || args.has("forecast") ||
      args.has("reopt-max-moves")) {
    config.control.enabled = true;
    config.control.reopt_hours =
        args.get_double("reopt-hours", config.control.reopt_hours);
    config.control.max_moves_per_window = static_cast<std::size_t>(
        args.get_double("reopt-max-moves",
                        static_cast<double>(
                            config.control.max_moves_per_window)));
  }
  return 0;
}

/// Applies the shared --shards / --shard-policy flags; returns false on a
/// bad policy name.
bool apply_shard_flags(const CliArgs& args, simcluster::SimConfig& config) {
  config.shard_count =
      static_cast<std::size_t>(args.get_double("shards", 1));
  const auto policy =
      policy_flag<cluster::ShardSelectionSurface>(args, "shard-policy", "p2c");
  if (!policy) return false;
  config.policies.shard_selection.name = *policy;
  return true;
}

int cmd_trace_generate(const CliArgs& args) {
  CliValidator validator(args);
  validator
      .allow_only({"vms", "hours", "seed", "out", "interactive-share"})
      .require_integer_in_range("vms", 1, kMaxVms)
      .require_in_range("hours", 0.001, kMaxHours)
      .require_integer_in_range("seed", 0, kMaxSeed)
      .require_in_range("interactive-share", 0.0, 1.0);
  if (report_errors(validator)) return 1;

  trace::AzureTraceConfig config;
  config.vm_count = static_cast<std::size_t>(args.get_double("vms", 10000));
  config.seed = static_cast<std::uint64_t>(args.get_double("seed", 42));
  config.duration = sim::SimTime::from_hours(args.get_double("hours", 72));
  config.interactive_share = args.get_double("interactive-share", 0.5);
  const std::string out = args.get("out", "");
  if (out.empty()) return usage();

  const auto records = trace::AzureTraceGenerator(config).generate();
  trace::save_trace(out, records);
  std::cout << "wrote " << records.size() << " VMs to " << out << "\n";
  return 0;
}

int cmd_trace_stats(const CliArgs& args) {
  CliValidator validator(args);
  validator.allow_only({"in", "deflation"})
      .require_in_range("deflation", 0.0, 1.0);
  if (report_errors(validator)) return 1;

  const std::string in = args.get("in", "");
  if (in.empty()) return usage();
  const auto records = trace::load_trace(in);

  std::size_t interactive = 0, batch = 0, unknown = 0;
  double core_hours = 0.0;
  for (const auto& record : records) {
    switch (record.workload) {
      case hv::WorkloadClass::Interactive: ++interactive; break;
      case hv::WorkloadClass::DelayInsensitive: ++batch; break;
      case hv::WorkloadClass::Unknown: ++unknown; break;
    }
    core_hours += record.vcpus * record.lifetime().hours();
  }
  const auto peak = simcluster::TraceDrivenSimulator::peak_committed(records);
  std::cout << "VMs: " << records.size() << " (interactive " << interactive
            << ", delay-insensitive " << batch << ", unknown " << unknown
            << ")\n"
            << "committed core-hours: " << core_hours << "\n"
            << "peak committed: " << peak << "\n";

  const double deflation = args.get_double("deflation", 0.5);
  const auto box = analysis::cpu_underallocation_box(records, deflation);
  std::cout << "time above " << 100 * (1 - deflation)
            << "% allocation (i.e. " << 100 * deflation
            << "% deflation): median " << 100 * box.median << "%, q3 "
            << 100 * box.q3 << "%\n";
  return 0;
}

int cmd_simulate(const CliArgs& args) {
  CliValidator validator(args);
  validator
      .allow_only({"in", "overcommit", "policy", "mode", "mechanism",
                   "placement", "partitioned", "no-reinflate", "servers",
                   "shards", "shard-policy"})
      .require_at_least("overcommit", -0.9)
      .require_integer_in_range("servers", 1, kMaxServers)
      .require_integer_in_range("shards", 1, kMaxServers);
  if (report_errors(validator)) return 1;

  simcluster::SimConfig config;
  const auto placement =
      policy_flag<cluster::PlacementSurface>(args, "placement", "fitness");
  if (!placement) {
    return unknown_policy_error<cluster::PlacementSurface>(
        "placement", args.get("placement", ""));
  }
  config.policies.placement.name = *placement;
  if (!apply_shard_flags(args, config)) {
    return unknown_policy_error<cluster::ShardSelectionSurface>(
        "shard-policy", args.get("shard-policy", ""));
  }

  const std::string in = args.get("in", "");
  if (in.empty()) return usage();
  const auto records = trace::load_trace(in);

  const auto policy = parse_policy(args.get("policy", "proportional"));
  if (!policy) return flag_error("flag --policy: unknown value '" +
                                 args.get("policy", "") +
                                 "' (expected proportional|priority|"
                                 "priority-nomin|deterministic)");
  const auto mechanism = parse_mechanism(args.get("mechanism", "hybrid"));
  if (!mechanism) return flag_error("flag --mechanism: unknown value '" +
                                    args.get("mechanism", "") +
                                    "' (expected hybrid|transparent|"
                                    "explicit|balloon)");
  config.policy = *policy;
  config.mechanism = *mechanism;
  const std::string mode = args.get("mode", "deflation");
  if (mode != "deflation" && mode != "preemption") {
    return flag_error("flag --mode: unknown value '" + mode +
                      "' (expected deflation|preemption)");
  }
  config.mode = mode == "preemption" ? cluster::ReclamationMode::Preemption
                                     : cluster::ReclamationMode::Deflation;
  config.partitioned = args.has("partitioned");
  config.reinflate_on_departure = !args.has("no-reinflate");

  const double overcommit = args.get_double("overcommit", 0.0);
  if (args.has("servers")) {
    config.server_count = static_cast<std::size_t>(args.get_double("servers", 40));
  } else {
    const std::size_t baseline =
        simcluster::TraceDrivenSimulator::minimum_feasible_servers(records,
                                                                   config);
    config.server_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(static_cast<double>(baseline) / (1.0 + overcommit))));
    std::cout << "baseline " << baseline << " servers -> "
              << config.server_count << " at " << 100 * overcommit
              << "% overcommitment\n";
  }

  simcluster::TraceDrivenSimulator simulator(records, config);
  const auto metrics = simulator.run();

  util::Table table({"metric", "value"});
  table.add_row({"policy", core::policy_kind_name(config.policy)});
  table.add_row({"mechanism", mech::mechanism_kind_name(config.mechanism)});
  if (config.shard_count > 1) {
    table.add_row({"shards",
                   std::to_string(config.shard_count) + " (" +
                       config.policies.shard_selection.name + ")"});
  }
  table.add_row({"achieved overcommit",
                 util::format_double(100 * metrics.achieved_overcommit, 1) + "%"});
  table.add_row({"failure probability",
                 util::format_double(100 * metrics.failure_probability, 3) + "%"});
  table.add_row({"preemption probability",
                 util::format_double(100 * metrics.preemption_probability, 3) + "%"});
  table.add_row({"throughput loss",
                 util::format_double(100 * metrics.throughput_loss, 3) + "%"});
  table.add_row({"mean cpu deflation",
                 util::format_double(100 * metrics.mean_cpu_deflation, 2) + "%"});
  table.add_row({"rejections", std::to_string(metrics.rejections)});
  table.add_row({"preemptions", std::to_string(metrics.preemptions)});
  table.add_row(
      {"revenue (static)",
       util::format_double(cluster::revenue_increase_percent(
                               metrics.revenue, cluster::PricingScheme::Static),
                           2) +
           "% of on-demand"});
  table.print(std::cout);
  return 0;
}

int cmd_revoke_sim(const CliArgs& args) {
  // Policy flags resolve to registry primary names up front, so the
  // checks below see one spelling whichever alias was typed.
  const auto admission =
      policy_flag<cluster::AdmissionSurface>(args, "admission", "admit-all");
  const std::string admission_name =
      admission.value_or(args.get("admission", ""));
  CliValidator validator(args);
  validator
      .allow_only({"in", "servers", "model", "rate", "bid", "no-portfolio",
                   "od-share", "floor", "risk", "mode", "partitioned", "seed",
                   "markets", "correlation", "common-shock-rate", "shards",
                   "shard-policy", "warning-secs", "migration-bandwidth",
                   "migration-dirty-rate", "migration-contention",
                   "migration-strategy", "admission", "price-ceiling",
                   "defer-hours", "bid-opt", "reopt-hours", "forecast",
                   "reopt-max-moves"})
      .require_integer_in_range("servers", 1, kMaxServers)
      .require_integer_in_range("shards", 1, kMaxServers)
      .require_integer_in_range("markets", 1, kMaxMarkets)
      .require_at_least("rate", 0.0)
      .require_in_range("bid", 1e-6, 100.0)
      .require_in_range("od-share", 0.0, 1.0)
      .require_in_range("floor", 0.0, 1.0)
      .require_at_least("risk", 0.0)
      .require_integer_in_range("seed", 0, kMaxSeed)
      .require_in_range("correlation", -1.0, 1.0)
      .require_at_least("common-shock-rate", 0.0)
      .require_at_least("warning-secs", 0.0)
      .require_at_least("migration-bandwidth", 0.0)
      .require_at_least("migration-dirty-rate", 0.0)
      .require_in_range("price-ceiling", 1e-6, 100.0)
      .require_at_least("defer-hours", 0.0)
      .require_at_least("reopt-hours", 1e-6)
      .require_integer_in_range("reopt-max-moves", 0, kMaxServers)
      .check(!args.has("price-ceiling") || admission_name == "price",
             "flag --price-ceiling requires --admission price (admit-all "
             "ignores it; bid-opt derives its ceilings from the optimizer)")
      .check(!args.has("defer-hours") || admission_name == "price" ||
                 admission_name == "bid-opt",
             "flag --defer-hours requires --admission price|bid-opt (the "
             "deferral window has no effect under admit-all)")
      .check(!(args.has("bid") &&
               (args.has("bid-opt") || admission_name == "bid-opt")),
             "flags --bid and --bid-opt/--admission bid-opt conflict (the "
             "optimizer replaces the hand-set bid)")
      .check(!args.has("correlation") || args.get_double("markets", 1) >= 2,
             "flag --correlation needs --markets >= 2 (a single market has "
             "no pairwise correlation)");
  if (report_errors(validator)) return 1;

  simcluster::SimConfig config;
  if (!admission) {
    return unknown_policy_error<cluster::AdmissionSurface>(
        "admission", args.get("admission", ""));
  }
  const auto model =
      policy_flag<transient::RevocationSurface>(args, "model", "poisson");
  if (!model) {
    return unknown_policy_error<transient::RevocationSurface>(
        "model", args.get("model", ""));
  }
  const auto strategy = policy_flag<cluster::MigrationSurface>(
      args, "migration-strategy", "hybrid");
  if (!strategy) {
    return unknown_policy_error<cluster::MigrationSurface>(
        "migration-strategy", args.get("migration-strategy", ""));
  }
  if (!apply_shard_flags(args, config)) {
    return unknown_policy_error<cluster::ShardSelectionSurface>(
        "shard-policy", args.get("shard-policy", ""));
  }

  const std::string in = args.get("in", "");
  if (in.empty()) return usage();
  const auto records = trace::load_trace(in);

  const std::string mode = args.get("mode", "deflation");
  if (mode != "deflation" && mode != "preemption") {
    return flag_error("flag --mode: unknown value '" + mode +
                      "' (expected deflation|preemption)");
  }
  config.mode = mode == "preemption" ? cluster::ReclamationMode::Preemption
                                     : cluster::ReclamationMode::Deflation;
  // With --partitioned the portfolio's pool weights shape the partitions
  // and the on-demand pool is exactly the never-revoked server set.
  config.partitioned = args.has("partitioned");
  if (args.has("servers")) {
    config.server_count =
        static_cast<std::size_t>(args.get_double("servers", 40));
  } else {
    // 20% headroom below peak so migrations off revoked servers can land.
    config.server_count =
        simcluster::TraceDrivenSimulator::servers_for_overcommit(
            records, config.server_capacity, -0.2);
  }

  config.market_enabled = true;
  config.market.seed = static_cast<std::uint64_t>(args.get_double("seed", 42));
  config.market.revocation.model_name = *model;
  config.market.revocation.poisson_rate_per_hour =
      args.get_double("rate", 1.0 / 24.0);
  config.market.revocation.bid = args.get_double("bid", 0.5);
  config.market.use_portfolio = !args.has("no-portfolio");
  config.market.on_demand_share = args.get_double("od-share", 0.0);
  config.market.portfolio.on_demand_floor = args.get_double("floor", 0.1);
  config.market.portfolio.risk_aversion = args.get_double("risk", 2.0);

  // Admission API v2 + per-class bid optimization.
  config.policies.admission.name = *admission;
  config.admission.default_ceiling = args.get_double("price-ceiling", 0.35);
  config.admission.max_defer_hours = args.get_double("defer-hours", 6.0);
  config.market.optimize_bids = args.has("bid-opt") || *admission == "bid-opt";

  // Timed migration: set the warning before replicate_markets below so
  // every market copy inherits it.
  config.market.revocation.warning_hours =
      args.get_double("warning-secs", 0.0) / 3600.0;
  config.migration.model.bandwidth_mib_per_sec =
      args.get_double("migration-bandwidth", 0.0);
  config.migration.model.dirty_mib_per_sec =
      args.get_double("migration-dirty-rate", 64.0);
  config.migration.model.share_bandwidth = args.has("migration-contention");
  config.migration.strategy_name = *strategy;

  // Multi-market fleet: K copies of the configured market, coupled by a
  // uniform pairwise correlation, each with its own revocation stream.
  const auto market_count =
      static_cast<std::size_t>(args.get_double("markets", 1));
  const double market_correlation = args.get_double("correlation", 0.3);
  if (market_count > 1) {
    config.market.replicate_markets(market_count, market_correlation);
  }
  // Provider-wide crunches apply to single-market fleets too.
  config.market.common_shock_rate_per_hour =
      args.get_double("common-shock-rate", 0.0);

  // Online control plane (rolling re-optimization).
  if (const int error = apply_control_flags(args, config); error != 0) {
    return error;
  }

  simcluster::TraceDrivenSimulator simulator(records, config);
  const auto metrics = simulator.run();

  util::Table table({"metric", "value"});
  table.add_row({"revocation model", *model});
  table.add_row({"servers", std::to_string(config.server_count)});
  if (config.shard_count > 1) {
    table.add_row({"shards", std::to_string(config.shard_count)});
  }
  if (config.market.markets.size() > 1) {
    table.add_row({"markets",
                   std::to_string(config.market.markets.size()) + " (rho " +
                       util::format_double(market_correlation, 2) + ")"});
  }
  table.add_row({"transient share",
                 util::format_double(100 * metrics.transient_server_share, 1) +
                     "%"});
  table.add_row({"revocations", std::to_string(metrics.revocations)});
  table.add_row({"vm migrations", std::to_string(metrics.revocation_migrations)});
  table.add_row({"vm kills", std::to_string(metrics.revocation_kills)});
  if (*admission != "admit-all") {
    table.add_row({"admission policy", *admission});
    table.add_row({"deferrals", std::to_string(metrics.admission_deferrals)});
    table.add_row({"expired deferrals",
                   std::to_string(metrics.admission_expired)});
    table.add_row({"deferred delay",
                   util::format_double(metrics.admission_delay_hours, 1) +
                       " h (unserved cost " +
                       util::format_double(
                           metrics.cost.admission_unserved_cost, 1) +
                       ")"});
  }
  if (config.migration.model.bandwidth_mib_per_sec > 0.0) {
    table.add_row({"migration strategy", *strategy});
    table.add_row({"warning", args.get("warning-secs", "0") + "s @ " +
                                  args.get("migration-bandwidth", "0") +
                                  " MiB/s"});
    table.add_row({"live migrations", std::to_string(metrics.live_migrations)});
    table.add_row(
        {"checkpoint restores", std::to_string(metrics.checkpoint_restores)});
    table.add_row(
        {"checkpoint kills", std::to_string(metrics.checkpoint_kills)});
    table.add_row({"migration downtime",
                   util::format_double(metrics.migration_downtime_hours, 3) +
                       " h (cost " +
                       util::format_double(
                           metrics.cost.migration_downtime_cost, 1) +
                       ")"});
  }
  if (config.control.enabled) {
    table.add_row({"forecast policy", config.control.forecast});
    table.add_row({"re-optimizations",
                   std::to_string(metrics.control_reopts)});
    table.add_row({"control moves", std::to_string(metrics.control_moves)});
  }
  table.add_row({"failure probability",
                 util::format_double(100 * metrics.failure_probability, 3) + "%"});
  table.add_row({"throughput loss",
                 util::format_double(100 * metrics.throughput_loss, 3) + "%"});
  table.add_row({"portfolio cost/core-hour",
                 util::format_double(metrics.portfolio_expected_cost, 3)});
  table.add_row({"fleet cost",
                 util::format_double(metrics.cost.total_cost(), 0)});
  table.add_row({"all-on-demand cost",
                 util::format_double(metrics.cost.all_on_demand_cost, 0)});
  table.add_row({"saving vs on-demand",
                 util::format_double(metrics.cost.saving_percent(), 2) + "%"});
  table.print(std::cout);

  if (metrics.cost.per_market.size() > 1) {
    std::cout << "\n";
    util::Table markets({"market", "servers", "held core-hours", "cost"});
    for (const auto& market : metrics.cost.per_market) {
      markets.add_row({market.name, std::to_string(market.servers),
                       util::format_double(market.core_hours, 0),
                       util::format_double(market.cost, 0)});
    }
    markets.print(std::cout);
  }
  return 0;
}

int cmd_feasibility(const CliArgs& args) {
  CliValidator validator(args);
  validator.allow_only({"in"});
  if (report_errors(validator)) return 1;

  const std::string in = args.get("in", "");
  if (in.empty()) return usage();
  const auto records = trace::load_trace(in);

  util::Table table({"deflation_%", "min", "q1", "median", "q3", "max"});
  for (int d = 10; d <= 90; d += 10) {
    const auto box = analysis::cpu_underallocation_box(records, d / 100.0);
    table.add_row_labeled(std::to_string(d),
                          {box.min, box.q1, box.median, box.q3, box.max});
  }
  table.print(std::cout);
  return 0;
}

// --- connect / replay: the service layer (src/net/) ------------------------

// Drives a running deflated daemon through the batching client: submits
// --vms synthetic admission requests in batches of --batch, arrivals
// spread over --hours, then prints the decision breakdown (the CI smoke
// job greps for a nonzero `placed`). --shutdown sends the Shutdown frame
// afterwards, stopping the daemon.
int cmd_connect(const CliArgs& args) {
  CliValidator validator(args);
  validator
      .allow_only({"port", "vms", "batch", "hours", "seed", "telemetry",
                   "shutdown"})
      .require_in_range("port", 1, 65535)
      .require_integer_in_range("vms", 1, kMaxVms)
      .require_integer_in_range("batch", 1, kMaxVms)
      .require_in_range("hours", 0, kMaxHours)
      .require_integer_in_range("seed", 0, kMaxSeed)
      .require_integer_in_range("telemetry", 1, kMaxUint32);
  if (report_errors(validator)) return 1;
  if (!args.has("port")) return flag_error("connect requires --port");

  const auto port = static_cast<std::uint16_t>(args.get_double("port", 0));
  const auto vms = static_cast<std::size_t>(args.get_double("vms", 200));
  const auto batch = static_cast<std::size_t>(args.get_double("batch", 32));
  const double hours = args.get_double("hours", 2.0);
  const auto seed = static_cast<std::uint64_t>(args.get_double("seed", 1));

  auto client = net::Client::connect(port);
  if (!client.has_value()) {
    std::cerr << "error: cannot connect to 127.0.0.1:" << port << "\n";
    return 2;
  }
  std::cout << "connected: " << client->hello().server
            << " (admission=" << client->hello().admission_policy << ")\n";

  // Telemetry subscription (codec v3): the server interleaves one
  // aggregate UtilizationReport per N decisions on this connection.
  if (args.has("telemetry")) {
    const auto every =
        static_cast<std::uint32_t>(args.get_double("telemetry", 0));
    if (!client->request_telemetry(every)) {
      std::cerr << "error: telemetry subscription failed\n";
      return 2;
    }
  }

  util::Rng rng(seed);
  std::size_t in_batch = 0;
  for (std::size_t i = 0; i < vms; ++i) {
    hv::VmSpec spec;
    spec.id = i + 1;
    spec.name = "req-" + std::to_string(i + 1);
    spec.vcpus = static_cast<int>(rng.uniform_int(1, 8));
    spec.memory_mib = spec.vcpus * 2048.0;
    spec.priority = rng.uniform(0.1, 1.0);
    spec.deflatable = rng.bernoulli(0.75);
    const auto arrival =
        sim::SimTime::from_hours(hours * static_cast<double>(i) /
                                 static_cast<double>(vms));
    client->submit(cluster::AdmissionRequest::from_spec(spec, arrival));
    if (++in_batch == batch) {
      if (!client->flush()) {
        std::cerr << "error: connection failed mid-batch\n";
        return 2;
      }
      in_batch = 0;
    }
  }
  if (!client->flush()) {
    std::cerr << "error: connection failed on the final batch\n";
    return 2;
  }

  std::size_t placed = 0, deflated = 0, deferred = 0, rejected = 0;
  for (const auto& [id, decision] : client->decisions()) {
    switch (decision.status) {
      case cluster::AdmissionDecision::Status::Placed: ++placed; break;
      case cluster::AdmissionDecision::Status::PlacedDeflated:
        ++deflated;
        break;
      case cluster::AdmissionDecision::Status::Deferred: ++deferred; break;
      case cluster::AdmissionDecision::Status::Rejected: ++rejected; break;
    }
  }
  std::cout << "requests " << vms << "\n"
            << "placed " << placed << "\n"
            << "placed-deflated " << deflated << "\n"
            << "deferred " << deferred << "\n"
            << "rejected " << rejected << "\n"
            << "deferral-resolutions " << client->resolved_deferrals().size()
            << "\n";
  if (args.has("telemetry")) {
    std::cout << "telemetry-reports " << client->telemetry_reports() << "\n";
    if (client->last_telemetry().has_value()) {
      std::cout << "fleet overcommit ratio "
                << util::format_double(
                       client->last_telemetry()->overcommit_ratio, 3)
                << "\n";
    }
  }

  if (args.has("shutdown")) {
    if (!client->shutdown_server()) {
      std::cerr << "error: server did not acknowledge shutdown\n";
      return 2;
    }
    std::cout << "server shut down\n";
  }
  return 0;
}

// Replays a captured admission session (deflated --capture) through a
// fresh controller stack and verifies the regenerated decisions are
// byte-identical. Exit 1 on any divergence.
int cmd_replay(const CliArgs& args) {
  CliValidator validator(args);
  validator.allow_only({"capture"});
  if (report_errors(validator)) return 1;
  const std::string path = args.get("capture", "");
  if (path.empty()) return flag_error("replay requires --capture FILE");

  const net::ReplayReport report = net::replay_capture(path);
  if (!report.error.empty()) {
    std::cerr << "error: " << report.error << "\n";
    return 2;
  }
  std::cout << "requests " << report.requests << "\n"
            << "decisions " << report.decisions << "\n"
            << "mismatches " << report.mismatches << "\n";
  for (const auto& detail : report.details) {
    std::cout << "  " << detail << "\n";
  }
  std::cout << (report.ok() ? "replay OK: decisions are bit-identical"
                            : "replay FAILED")
            << "\n";
  return report.ok() ? 0 : 1;
}

// Streams a trace through the full simulation in bounded memory: the
// arrival stream is built once, sized (server count from the stub-index
// peak), rewound, and handed to the simulator — the fleet itself is never
// resident.
int cmd_replay_trace(const CliArgs& args) {
  CliValidator validator(args);
  validator
      .allow_only({"source", "vms", "hours", "seed", "rate", "duration-scale",
                   "capture", "servers", "overcommit",
                   "shards", "shard-policy", "reopt-hours", "forecast",
                   "reopt-max-moves"})
      .require_integer_in_range("vms", 1, kMaxVms)
      .require_in_range("hours", 0.001, kMaxHours)
      .require_integer_in_range("seed", 0, kMaxSeed)
      .require_at_least("rate", 1e-6)
      .require_at_least("duration-scale", 1e-6)
      .require_integer_in_range("servers", 1, kMaxServers)
      .require_at_least("overcommit", -0.9)
      .require_integer_in_range("shards", 1, kMaxServers)
      .require_at_least("reopt-hours", 1e-6)
      .require_integer_in_range("reopt-max-moves", 0, kMaxServers)
      .check(!(args.has("servers") && args.has("overcommit")),
             "flags --servers and --overcommit conflict (pick an explicit "
             "fleet size or derive one from the target overcommitment)");
  if (report_errors(validator)) return 1;

  trace::ReplayConfig replay;
  const std::string source = args.get("source", "azure");
  if (source == "azure") {
    replay.source = trace::ArrivalSource::Azure;
    replay.azure.vm_count =
        static_cast<std::size_t>(args.get_double("vms", 10000));
    replay.azure.seed = static_cast<std::uint64_t>(args.get_double("seed", 42));
    replay.azure.duration =
        sim::SimTime::from_hours(args.get_double("hours", 72));
  } else if (source == "alibaba") {
    replay.source = trace::ArrivalSource::Alibaba;
    replay.alibaba.containers.container_count =
        static_cast<std::size_t>(args.get_double("vms", 4000));
    replay.alibaba.containers.seed =
        static_cast<std::uint64_t>(args.get_double("seed", 2020));
    replay.alibaba.containers.duration =
        sim::SimTime::from_hours(args.get_double("hours", 24));
  } else if (source == "capture") {
    replay.source = trace::ArrivalSource::Capture;
    replay.capture.path = args.get("capture", "");
    replay.capture.seed = static_cast<std::uint64_t>(args.get_double("seed", 7));
    if (replay.capture.path.empty()) {
      return flag_error("replay-trace --source capture requires --capture FILE");
    }
  } else {
    return flag_error("flag --source: unknown value '" + source +
                      "' (expected azure|alibaba|capture)");
  }
  replay.rate_multiplier = args.get_double("rate", 1.0);
  replay.duration_scale = args.get_double("duration-scale", 1.0);

  const auto stream = trace::make_arrival_stream(replay);

  simcluster::SimConfig config;
  if (!apply_shard_flags(args, config)) {
    return unknown_policy_error<cluster::ShardSelectionSurface>(
        "shard-policy", args.get("shard-policy", ""));
  }
  // Validated and carried for symmetry with revoke-sim; replay-trace has
  // no market plan, so an enabled controller is inert (nothing to
  // re-optimize).
  if (const int error = apply_control_flags(args, config); error != 0) {
    return error;
  }
  if (args.has("servers")) {
    config.server_count =
        static_cast<std::size_t>(args.get_double("servers", 40));
  } else {
    config.server_count = trace::servers_for_overcommit(
        *stream, config.server_capacity, args.get_double("overcommit", 0.0));
  }

  simcluster::TraceDrivenSimulator simulator(*stream, config);
  const auto metrics = simulator.run();

  util::Table table({"metric", "value"});
  table.add_row({"source", trace::arrival_source_name(replay.source)});
  table.add_row({"arrivals", std::to_string(stream->size())});
  table.add_row({"horizon",
                 util::format_double(stream->horizon().hours(), 1) + " h"});
  table.add_row({"servers", std::to_string(config.server_count)});
  table.add_row({"peak resident VMs",
                 std::to_string(simulator.peak_active_records())});
  table.add_row({"achieved overcommit",
                 util::format_double(100 * metrics.achieved_overcommit, 1) + "%"});
  table.add_row({"failure probability",
                 util::format_double(100 * metrics.failure_probability, 3) + "%"});
  table.add_row({"throughput loss",
                 util::format_double(100 * metrics.throughput_loss, 3) + "%"});
  table.add_row({"mean cpu deflation",
                 util::format_double(100 * metrics.mean_cpu_deflation, 2) + "%"});
  table.add_row({"rejections", std::to_string(metrics.rejections)});
  table.add_row({"preemptions", std::to_string(metrics.preemptions)});
  table.add_row({"unserved core-hours",
                 util::format_double(metrics.unserved_core_hours, 1)});
  table.print(std::cout);
  return 0;
}

// Enumerates every policy registry surface with its registered policies,
// aliases and tunable parameters — the whole catalog, including policies
// registered by link-time plugins. The trailing "N surfaces, M policies"
// summary is what the CI smoke greps.
int cmd_list_policies() {
  const auto surfaces = policy::describe_all_surfaces();
  std::size_t total = 0;
  for (const policy::SurfaceInfo& surface : surfaces) {
    std::cout << surface.surface << ": " << surface.description << "\n";
    util::Table table({"policy", "aliases", "parameters", "description"});
    for (const policy::PolicyInfo& entry : surface.policies) {
      std::string aliases;
      for (const std::string& alias : entry.aliases) {
        if (!aliases.empty()) aliases += ", ";
        aliases += alias;
      }
      std::string params;
      for (const policy::ParamSpec& spec : entry.params) {
        if (!params.empty()) params += ", ";
        params += spec.name + "=" + util::format_double(spec.default_value, 4);
      }
      table.add_row({entry.name, aliases.empty() ? "-" : aliases,
                     params.empty() ? "-" : params, entry.description});
      ++total;
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << surfaces.size() << " surfaces, " << total << " policies\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = util::parse_cli(argc, argv);
  if (args.positional.empty()) return usage();
  try {
    const std::string& command = args.positional[0];
    if (command == "trace" && args.positional.size() > 1) {
      if (args.positional[1] == "generate") return cmd_trace_generate(args);
      if (args.positional[1] == "stats") return cmd_trace_stats(args);
    }
    if (command == "simulate") return cmd_simulate(args);
    if (command == "feasibility") return cmd_feasibility(args);
    if (command == "revoke-sim") return cmd_revoke_sim(args);
    if (command == "connect") return cmd_connect(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "replay-trace") return cmd_replay_trace(args);
    if (command == "list-policies") return cmd_list_policies();
    return usage();
  } catch (const std::invalid_argument& error) {
    // Malformed flag values are usage errors, not runtime failures.
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
