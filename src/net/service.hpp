// Shared substance of the admission service: the configuration a
// deflated daemon runs with, the state both the live server (server.hpp)
// and the capture replayer (capture.hpp) build from it — spot-price
// trace, price feed, cluster manager, the global service clock — and
// the per-request step both run (Session::serve).
//
// The replayer reconstructs a ServiceCore from the capture file's header
// and must end up with *bit-identical* behavior (same trace, same
// manager routing, same policy), so everything behavioral lives in
// ServiceConfig and nothing in ambient state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/admission.hpp"
#include "cluster/sharded_manager.hpp"
#include "transient/spot_price.hpp"

namespace deflate::net {

struct AdmissionRequestMsg;   // codec.hpp
struct AdmissionDecisionMsg;  // codec.hpp

struct ServiceConfig {
  /// Listen port; 0 = kernel-assigned ephemeral port (tests, CI).
  std::uint16_t port = 0;
  /// Ignored: the daemon serves every connection from one loop; delete
  /// once perfbench/ stops assigning it.
  std::size_t worker_threads = 4;

  // Fleet.
  std::size_t server_count = 40;
  std::size_t shard_count = 1;
  /// An alias, consulted only when `shard_policy_name` is empty.
  cluster::ShardSelectionPolicy shard_policy =
      cluster::ShardSelectionPolicy::PowerOfTwoChoices;
  /// Registry name for shard selection; see shard_policy_of. Required to
  /// select a link-time plugin selector (no enum value).
  std::string shard_policy_name;
  /// Registry name for placement scoring; empty keeps the default
  /// (fitness). Unknown names throw std::invalid_argument at build.
  std::string placement_policy;
  std::uint64_t routing_seed = 42;

  // Admission.
  /// Registry name (`cluster::AdmissionRegistry`): admit-all, price,
  /// bid-opt, or a plugin-registered policy.
  std::string admission_policy = "admit-all";
  /// Ceilings / deferral window; the `policy` kind inside is ignored —
  /// `admission_policy` picks the registry entry.
  cluster::AdmissionConfig admission;

  // Market. price_trace_hours > 0 attaches a single-market OU spot trace
  /// (deterministic in `spot` + `price_seed`) to the price feed; 0 runs
  /// feed-less (price policies degrade to admit-all).
  double on_demand_price = 1.0;
  double price_trace_hours = 0.0;
  std::uint64_t price_seed = 42;
  transient::SpotPriceConfig spot;

  /// Append every AdmissionRequest/AdmissionDecision to this message log
  /// (capture.hpp format); empty = no capture.
  std::string capture_path;

  /// Free-form server banner carried in the Hello frame.
  std::string banner = "deflated/0.1";
};

/// The shard selector `config` selects: `shard_policy_name`, or the
/// primary name `shard_policy` aliases when the name is empty.
[[nodiscard]] std::string shard_policy_of(const ServiceConfig& config);

/// The deterministic heart of the service, shared by server and replayer.
/// Thread-compatible: only the server's loop thread touches it.
class ServiceCore {
 public:
  /// Builds trace, feed and manager. Throws std::invalid_argument when
  /// the config names an unknown admission policy.
  explicit ServiceCore(const ServiceConfig& config);

  /// A fresh controller, built by the registry entry the config names.
  /// Controllers share the manager and feed; each keeps its own deferral
  /// queue.
  [[nodiscard]] std::unique_ptr<cluster::AdmissionController>
  make_controller();

  /// Advances the global service clock to `arrival` (monotonic: never
  /// moves backwards) and returns the new now.
  sim::SimTime advance_clock(sim::SimTime arrival) noexcept;

  [[nodiscard]] cluster::ClusterManagerBase& manager() noexcept {
    return *manager_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] sim::SimTime clock() const noexcept { return clock_; }

 private:
  ServiceConfig config_;
  /// Backing storage for the feed (PriceFeed holds raw pointers).
  std::vector<transient::PriceTrace> traces_;
  cluster::PriceFeed feed_;
  std::unique_ptr<cluster::ClusterManagerBase> manager_;
  sim::SimTime clock_;
};

/// One connection's admission state: its own controller over the core's
/// manager and feed, so every resolution drained from its deferral queue
/// belongs to this connection. The server runs one per connection, the
/// replayer one per captured connection id. The core must outlive it.
class Session {
 public:
  explicit Session(ServiceCore& core);

  /// Advances the core's clock to the request's arrival, drains the
  /// deferrals due by then and decides the request. Returns the decisions
  /// in wire order: each resolution under its own request's id (vm ids
  /// may repeat), then the request's own.
  [[nodiscard]] std::vector<AdmissionDecisionMsg> serve(
      const AdmissionRequestMsg& message);

 private:
  ServiceCore& core_;
  std::unique_ptr<cluster::AdmissionController> controller_;
};

}  // namespace deflate::net
