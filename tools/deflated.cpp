// deflated — the admission-as-a-service daemon.
//
//   deflated [--port P] [--port-file FILE] [--servers N] [--shards K]
//            [--shard-policy p2c|least-loaded|round-robin]
//            [--admission NAME] [--price-ceiling C] [--defer-hours H]
//            [--price-hours H] [--price-seed S] [--capture FILE]
//            [--list-policies]
//
// Serves the Admission API v2 (src/cluster/admission.hpp) over the
// framed binary codec (src/net/codec.hpp) on loopback TCP: one
// ClusterManager fleet of --shards shards, one spot-price feed, one
// admission policy picked *by name* from the self-describing registry
// (cluster::AdmissionRegistry — `--list-policies` prints every name with its
// description). --port 0 (the default) binds an ephemeral port;
// --port-file writes the bound port to FILE so scripts (CI smoke) can
// find it. --capture appends every admission request and decision to a
// replayable message log (`deflatectl replay` verifies it). One loop
// thread serves every connection (src/net/server.hpp).
//
// The daemon runs until a client sends the Shutdown frame (deflatectl
// connect --shutdown), then exits 0.
//
// Exit status: 0 on clean shutdown, 1 on usage errors, 2 when the port
// cannot be bound or the capture file cannot be created.
#include <fstream>
#include <iostream>
#include <string>

#include "net/server.hpp"
#include "policy/catalog.hpp"
#include "util/cli.hpp"

namespace {

using namespace deflate;
using namespace deflate::util::flag_limits;

int usage() {
  std::cerr
      << "usage: deflated [--port P] [--port-file FILE] [--servers N]\n"
         "                [--shards K] [--shard-policy p2c|least-loaded|"
         "round-robin]\n"
         "                [--admission NAME] [--price-ceiling C]\n"
         "                [--defer-hours H] [--price-hours H] "
         "[--price-seed S]\n"
         "                [--capture FILE] [--list-policies]\n";
  return 1;
}

// Prints every surface's registered policies (the same process-wide
// catalog deflatectl list-policies renders as tables), one line each:
//   <surface>\t<policy>\t<description>
int list_policies() {
  for (const auto& surface : policy::describe_all_surfaces()) {
    for (const auto& entry : surface.policies) {
      std::cout << surface.surface << "\t" << entry.name << "\t"
                << entry.description << "\n";
    }
  }
  return 0;
}

/// One-line "flag --X: unknown value 'v' (expected a|b|c)" diagnostic over
/// the surface's registered primary names; returns the usage exit code.
template <typename Surface>
int unknown_policy(const std::string& flag, const util::CliArgs& args) {
  std::cerr << "error: flag --" << flag << ": unknown value '"
            << args.get(flag, "") << "' (expected "
            << policy::joined_policy_names<Surface>() << ")\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args = util::parse_cli(argc, argv);
  if (!args.positional.empty()) return usage();
  try {
    util::CliValidator validator(args);
    validator
        .allow_only({"port", "port-file", "servers", "shards", "shard-policy",
                     "admission", "price-ceiling", "defer-hours",
                     "price-hours", "price-seed", "capture", "list-policies"})
        .require_in_range("port", 0, 65535)
        .require_integer_in_range("servers", 1, kMaxServers)
        .require_integer_in_range("shards", 1, kMaxServers)
        .require_at_least("price-ceiling", 0)
        .require_at_least("defer-hours", 0)
        .require_in_range("price-hours", 0, kMaxHours)
        .require_integer_in_range("price-seed", 0, kMaxSeed);
    if (!validator.ok()) {
      for (const auto& error : validator.errors()) {
        std::cerr << "error: " << error << "\n";
      }
      return 1;
    }
    if (args.has("list-policies")) return list_policies();

    net::ServiceConfig config;
    config.port = static_cast<std::uint16_t>(args.get_double("port", 0));
    config.server_count =
        static_cast<std::size_t>(args.get_double("servers", 40));
    config.shard_count =
        static_cast<std::size_t>(args.get_double("shards", 1));
    // Policy flags are registry lookups: plugin names parse like
    // builtins, and the config carries the primary name.
    const auto* shard_policy = cluster::ShardSelectionRegistry::instance().find(
        args.get("shard-policy", "p2c"));
    if (shard_policy == nullptr) {
      return unknown_policy<cluster::ShardSelectionSurface>("shard-policy",
                                                            args);
    }
    config.shard_policy_name = shard_policy->name;
    const auto* admission = cluster::AdmissionRegistry::instance().find(
        args.get("admission", "admit-all"));
    if (admission == nullptr) {
      return unknown_policy<cluster::AdmissionSurface>("admission", args);
    }
    config.admission_policy = admission->name;
    config.admission.default_ceiling =
        args.get_double("price-ceiling", config.admission.default_ceiling);
    config.admission.max_defer_hours =
        args.get_double("defer-hours", config.admission.max_defer_hours);
    config.price_trace_hours = args.get_double("price-hours", 0);
    config.price_seed =
        static_cast<std::uint64_t>(args.get_double("price-seed", 42));
    config.capture_path = args.get("capture", "");

    net::Server server(std::move(config));
    if (!server.start()) {
      std::cerr << "error: cannot bind 127.0.0.1:"
                << args.get("port", "0") << " (or open the capture file)\n";
      return 2;
    }
    if (args.has("port-file")) {
      std::ofstream port_file(args.get("port-file", ""));
      port_file << server.port() << "\n";
    }
    std::cout << "deflated listening on 127.0.0.1:" << server.port()
              << " (admission=" << server.config().admission_policy
              << ", servers=" << server.config().server_count
              << ", shards=" << server.config().shard_count << ")"
              << std::endl;

    server.wait();
    server.stop();
    const auto stats = server.stats();
    std::cout << "deflated shut down: " << stats.connections
              << " connections, " << stats.admission_requests
              << " admission requests, " << stats.decisions << " decisions"
              << std::endl;
    return 0;
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
