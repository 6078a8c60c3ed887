#include "net/service.hpp"

#include <stdexcept>

#include "net/codec.hpp"

namespace deflate::net {

std::string shard_policy_of(const ServiceConfig& config) {
  return config.shard_policy_name.empty()
             ? cluster::shard_selection_name(config.shard_policy)
             : config.shard_policy_name;
}

ServiceCore::ServiceCore(const ServiceConfig& config) : config_(config) {
  // Resolved once, so config() (and the capture header written from it)
  // carries the one shard-policy name the fleet runs with.
  config_.shard_policy_name = shard_policy_of(config_);
  if (cluster::AdmissionRegistry::instance().find(config_.admission_policy) ==
      nullptr) {
    throw std::invalid_argument(
        "unknown admission policy '" + config_.admission_policy +
        "' (expected " +
        policy::joined_policy_names<cluster::AdmissionSurface>() + ")");
  }

  if (config_.price_trace_hours > 0) {
    transient::SpotPriceConfig spot = config_.spot;
    spot.on_demand_price = config_.on_demand_price;
    traces_.push_back(
        transient::SpotPriceModel(spot, config_.price_seed)
            .generate(sim::SimTime::from_hours(config_.price_trace_hours)));
  }
  std::vector<const transient::PriceTrace*> trace_ptrs;
  for (const auto& trace : traces_) trace_ptrs.push_back(&trace);
  feed_ = cluster::PriceFeed(std::move(trace_ptrs), config_.on_demand_price);

  cluster::ShardedClusterConfig fleet;
  fleet.cluster.server_count = config_.server_count;
  fleet.cluster.placement_name = config_.placement_policy;
  fleet.shard_count = config_.shard_count;
  fleet.selection_name = config_.shard_policy_name;
  fleet.routing_seed = config_.routing_seed;
  // The manager ctor resolves both names through their registries and
  // throws the same one-line "unknown … (expected a|b|c)" diagnostics.
  manager_ = cluster::make_cluster_manager(fleet);
}

std::unique_ptr<cluster::AdmissionController> ServiceCore::make_controller() {
  const auto* entry =
      cluster::AdmissionRegistry::instance().find(config_.admission_policy);
  // Existence was checked in the constructor; a policy cannot be
  // unregistered, so entry is non-null here.
  return entry->make(config_.admission, *manager_, feed_);
}

sim::SimTime ServiceCore::advance_clock(sim::SimTime arrival) noexcept {
  if (arrival > clock_) clock_ = arrival;
  return clock_;
}

Session::Session(ServiceCore& core)
    : core_(core), controller_(core.make_controller()) {}

std::vector<AdmissionDecisionMsg> Session::serve(
    const AdmissionRequestMsg& message) {
  const sim::SimTime now = core_.advance_clock(message.request.arrival);
  std::vector<AdmissionDecisionMsg> out;
  // Resolutions due by now go out first, ahead of the fresh decision.
  for (const auto& resolved : controller_->drain(now)) {
    out.push_back({resolved.request.tag, resolved.decision});
  }
  cluster::AdmissionRequest request = message.request;
  request.tag = message.request_id;
  out.push_back({message.request_id, controller_->decide(request, now)});
  return out;
}

}  // namespace deflate::net
