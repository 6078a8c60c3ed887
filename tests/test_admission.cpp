// Admission API v2 (src/cluster/admission): the request/decision
// protocol, the three policies, the deferral queue's retry/expiry
// behavior in the simulation loop, and the per-class bid optimizer
// against a closed-form two-point price process.
#include "cluster/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>

#include "policy/registry.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "transient/bidding.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace sim = deflate::sim;
namespace tr = deflate::transient;

namespace {

using namespace deflate;

hv::VmSpec make_spec(std::uint64_t id, int vcpus, bool deflatable,
                     double priority = 0.4) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = vcpus;
  spec.memory_mib = 1024.0;
  spec.disk_bw_mbps = 0.0;
  spec.net_bw_mbps = 0.0;
  spec.deflatable = deflatable;
  spec.priority = deflatable ? priority : 1.0;
  return spec;
}

cl::ClusterConfig small_cluster(std::size_t servers) {
  cl::ClusterConfig config;
  config.server_count = servers;
  config.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  return config;
}

/// Step trace alternating between `low` and `high`: `low_steps` low
/// samples, then `high_steps` high ones, repeated. 5-minute steps.
tr::PriceTrace two_point_trace(double low, double high, std::size_t low_steps,
                               std::size_t high_steps, std::size_t cycles) {
  std::vector<double> prices;
  for (std::size_t c = 0; c < cycles; ++c) {
    prices.insert(prices.end(), low_steps, low);
    prices.insert(prices.end(), high_steps, high);
  }
  return {sim::SimTime::from_minutes(5), std::move(prices)};
}

cl::AdmissionRequest request_for(const hv::VmSpec& spec, sim::SimTime arrival,
                                 sim::SimTime deadline) {
  cl::AdmissionRequest request = cl::AdmissionRequest::from_spec(spec, arrival);
  request.deadline = deadline;
  return request;
}

}  // namespace

// --- protocol basics --------------------------------------------------------

TEST(AdmissionProtocol, RequestDerivesPriorityClassLikePartitions) {
  const auto od = cl::AdmissionRequest::from_spec(make_spec(1, 2, false),
                                                  sim::SimTime{});
  EXPECT_EQ(od.priority_class, 0U);
  const auto low = cl::AdmissionRequest::from_spec(
      make_spec(2, 2, true, /*priority=*/0.2), sim::SimTime{});
  const auto high = cl::AdmissionRequest::from_spec(
      make_spec(3, 2, true, /*priority=*/0.8), sim::SimTime{});
  EXPECT_EQ(low.priority_class,
            cl::pool_for_priority(true, 0.2, cl::kAdmissionClasses));
  EXPECT_EQ(high.priority_class,
            cl::pool_for_priority(true, 0.8, cl::kAdmissionClasses));
  EXPECT_GT(high.priority_class, low.priority_class);
}

TEST(AdmissionProtocol, AdmitAllMapsPlacementOntoDecisions) {
  cl::ClusterManager manager(small_cluster(1));
  auto controller = cl::make_admission_controller(
      {}, manager, cl::PriceFeed({}, 1.0));

  const auto placed = controller->decide(
      cl::AdmissionRequest::from_spec(make_spec(1, 8, false), sim::SimTime{}),
      sim::SimTime{});
  EXPECT_EQ(placed.status, cl::AdmissionDecision::Status::Placed);
  EXPECT_EQ(placed.reason, cl::AdmissionDecision::Reason::Admitted);
  EXPECT_TRUE(placed.admitted());
  // No market feed: the quote is the on-demand rate.
  EXPECT_DOUBLE_EQ(placed.quoted_price, 1.0);
  EXPECT_EQ(placed.placement.host_id, 0U);

  // A second full-size on-demand VM cannot fit a 16-core server.
  const auto rejected = controller->decide(
      cl::AdmissionRequest::from_spec(make_spec(2, 16, false), sim::SimTime{}),
      sim::SimTime{});
  EXPECT_EQ(rejected.status, cl::AdmissionDecision::Status::Rejected);
  EXPECT_EQ(rejected.reason, cl::AdmissionDecision::Reason::CapacityRejected);

  EXPECT_EQ(controller->stats().requests, 2U);
  EXPECT_EQ(controller->stats().admitted, 1U);
  EXPECT_EQ(controller->stats().rejected, 1U);
  EXPECT_EQ(controller->stats().deferrals, 0U);
  EXPECT_EQ(controller->queued(), 0U);
}

TEST(AdmissionProtocol, ClusterStatsFoldsExpiredDeferralsIntoRejections) {
  cl::ClusterManager manager(small_cluster(1));
  cl::AdmissionConfig config;
  config.policy = cl::AdmissionPolicyKind::PriceThreshold;
  config.default_ceiling = 0.3;
  config.max_defer_hours = 1.0;
  const tr::PriceTrace trace = two_point_trace(0.8, 0.8, 4, 4, 20);
  auto controller = cl::make_admission_controller(
      config, manager, cl::PriceFeed({&trace}, 1.0));

  // Price never affordable and the operator window (1 h) is the binding
  // constraint — the VM itself would live longer: the request waits out
  // its window, then expires.
  const auto decision = controller->decide(
      request_for(make_spec(1, 2, true), sim::SimTime{},
                  sim::SimTime::from_hours(1.0)),
      sim::SimTime{});
  ASSERT_EQ(decision.status, cl::AdmissionDecision::Status::Deferred);
  const auto resolved = controller->drain(sim::SimTime::from_hours(1.0));
  ASSERT_EQ(resolved.size(), 1U);
  EXPECT_EQ(resolved[0].decision.reason,
            cl::AdmissionDecision::Reason::DeadlineExpired);

  const cl::ClusterStats stats = controller->cluster_stats();
  EXPECT_EQ(stats.admission_deferrals, 1U);
  EXPECT_EQ(stats.admission_expired, 1U);
  // The placement layer never saw the VM; the expiry still counts as a
  // rejection end to end.
  EXPECT_EQ(stats.rejections, manager.stats().rejections + 1);
}

namespace {

/// Defers every request until `due`, then rejects it: a drain at `due`
/// resolves the whole queue, in the queue's pop order.
class DeferUntil final : public cl::AdmissionController {
 public:
  DeferUntil(cl::ClusterManagerBase& manager, sim::SimTime due)
      : AdmissionController({}, manager, cl::PriceFeed({}, 1.0)), due_(due) {}

 protected:
  cl::AdmissionDecision evaluate(const cl::AdmissionRequest& /*request*/,
                                 sim::SimTime now) override {
    cl::AdmissionDecision decision;  // Rejected unless deferred below
    if (now < due_) {
      decision.status = cl::AdmissionDecision::Status::Deferred;
      decision.reason = cl::AdmissionDecision::Reason::PriceDeferred;
      decision.retry_at = due_;
    }
    return decision;
  }

 private:
  sim::SimTime due_;
};

}  // namespace

TEST(AdmissionProtocol, RequestsDueAtOneInstantDrainInArrivalIdEnqueueOrder) {
  cl::ClusterManager manager(small_cluster(1));
  const sim::SimTime due = sim::SimTime::from_hours(2.0);
  DeferUntil controller(manager, due);

  // 240 requests over 4 arrival instants and 6 ids, so most share their
  // (arrival, id) with others, as a client that repeats ids sends them.
  // Each request's name records its enqueue position.
  struct Key {
    sim::SimTime arrival;
    std::uint64_t id = 0;
  };
  std::vector<Key> keys;
  for (int copy = 0; copy < 10; ++copy) {
    for (int minute = 0; minute < 40; minute += 10) {
      for (std::uint64_t id = 0; id < 6; ++id) {
        keys.push_back({sim::SimTime::from_minutes(minute), id});
      }
    }
  }
  std::shuffle(keys.begin(), keys.end(), std::mt19937{2024});
  for (std::size_t k = 0; k < keys.size(); ++k) {
    cl::AdmissionRequest request = cl::AdmissionRequest::from_spec(
        make_spec(keys[k].id, 2, true), keys[k].arrival);
    request.spec.name = std::to_string(k);
    ASSERT_EQ(controller.decide(request, keys[k].arrival).status,
              cl::AdmissionDecision::Status::Deferred);
  }
  ASSERT_EQ(controller.queued(), keys.size());
  ASSERT_EQ(controller.next_retry(), due);

  // (arrival, id) order, and enqueue order among equal keys.
  std::vector<std::size_t> order(keys.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&keys](std::size_t a, std::size_t b) {
                     if (keys[a].arrival != keys[b].arrival) {
                       return keys[a].arrival < keys[b].arrival;
                     }
                     return keys[a].id < keys[b].id;
                   });
  const auto resolved = controller.drain(due);
  ASSERT_EQ(resolved.size(), keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(resolved[i].request.spec.name, std::to_string(order[i]))
        << "drain position " << i;
  }
  EXPECT_EQ(controller.queued(), 0U);
  EXPECT_FALSE(controller.next_retry().has_value());
}

// --- PriceThreshold ---------------------------------------------------------

TEST(PriceThreshold, DefersDeflatableWhileQuoteAboveCeilingAndRetriesAtDrop) {
  cl::ClusterManager manager(small_cluster(2));
  cl::AdmissionConfig config;
  config.policy = cl::AdmissionPolicyKind::PriceThreshold;
  config.default_ceiling = 0.3;
  // 2 h of 0.8, then 2 h of 0.2, repeating.
  const tr::PriceTrace trace = two_point_trace(0.8, 0.2, 24, 24, 10);
  auto controller = cl::make_admission_controller(
      config, manager, cl::PriceFeed({&trace}, 1.0));

  const sim::SimTime arrival = sim::SimTime::from_minutes(10);
  const auto decision = controller->decide(
      request_for(make_spec(1, 2, true), arrival, sim::SimTime::from_hours(8)),
      arrival);
  ASSERT_EQ(decision.status, cl::AdmissionDecision::Status::Deferred);
  EXPECT_EQ(decision.reason, cl::AdmissionDecision::Reason::PriceDeferred);
  EXPECT_DOUBLE_EQ(decision.quoted_price, 0.8);
  // The next affordable step is exactly the 2 h boundary.
  EXPECT_EQ(decision.retry_at, sim::SimTime::from_hours(2.0));
  EXPECT_EQ(controller->next_retry(), decision.retry_at);

  // Draining before the retry time resolves nothing.
  EXPECT_TRUE(controller->drain(sim::SimTime::from_hours(1.0)).empty());
  EXPECT_EQ(controller->queued(), 1U);

  // At the drop the queued request is admitted at the cheap quote.
  const auto resolved = controller->drain(sim::SimTime::from_hours(2.0));
  ASSERT_EQ(resolved.size(), 1U);
  EXPECT_TRUE(resolved[0].decision.admitted());
  EXPECT_DOUBLE_EQ(resolved[0].decision.quoted_price, 0.2);
  EXPECT_EQ(controller->queued(), 0U);
  EXPECT_EQ(controller->stats().deferrals, 1U);
  EXPECT_EQ(controller->stats().admitted, 1U);
}

TEST(PriceThreshold, OnDemandClassIsNeverPriceGated) {
  cl::ClusterManager manager(small_cluster(2));
  cl::AdmissionConfig config;
  config.policy = cl::AdmissionPolicyKind::PriceThreshold;
  config.default_ceiling = 0.3;
  const tr::PriceTrace trace = two_point_trace(0.9, 0.9, 4, 4, 10);
  auto controller = cl::make_admission_controller(
      config, manager, cl::PriceFeed({&trace}, 1.0));

  const auto decision = controller->decide(
      cl::AdmissionRequest::from_spec(make_spec(1, 2, false), sim::SimTime{}),
      sim::SimTime{});
  EXPECT_TRUE(decision.admitted());
  EXPECT_DOUBLE_EQ(decision.quoted_price, 0.9);
}

TEST(PriceThreshold, PerClassCeilingsGateClassesIndependently) {
  cl::ClusterManager manager(small_cluster(2));
  cl::AdmissionConfig config;
  config.policy = cl::AdmissionPolicyKind::PriceThreshold;
  // Classes: [od, 0.2-class, 0.4-class, 0.6-class, 0.8-class].
  config.class_ceilings = {1.0, 0.3, 0.3, 0.6, 0.6};
  config.max_defer_hours = 4.0;  // the requests' 4 h deadlines = the window
  const tr::PriceTrace trace = two_point_trace(0.5, 0.5, 4, 4, 30);
  auto controller = cl::make_admission_controller(
      config, manager, cl::PriceFeed({&trace}, 1.0));

  // Low class (ceiling 0.3 < quote 0.5) defers; high class (0.6) admits.
  const auto low = controller->decide(
      request_for(make_spec(1, 2, true, 0.2), sim::SimTime{},
                  sim::SimTime::from_hours(4)),
      sim::SimTime{});
  EXPECT_EQ(low.status, cl::AdmissionDecision::Status::Deferred);
  const auto high = controller->decide(
      request_for(make_spec(2, 2, true, 0.8), sim::SimTime{},
                  sim::SimTime::from_hours(4)),
      sim::SimTime{});
  EXPECT_TRUE(high.admitted());
}

TEST(PriceThreshold, LifetimeLimitedRequestAdmitsInsteadOfWaitingToDie) {
  cl::ClusterManager manager(small_cluster(2));
  cl::AdmissionConfig config;
  config.policy = cl::AdmissionPolicyKind::PriceThreshold;
  config.default_ceiling = 0.3;
  config.max_defer_hours = 6.0;
  const tr::PriceTrace trace = two_point_trace(0.8, 0.8, 4, 4, 40);
  auto controller = cl::make_admission_controller(
      config, manager, cl::PriceFeed({&trace}, 1.0));

  // The price never becomes affordable, and the deadline (1 h, i.e. the
  // VM's remaining life) is shorter than the policy window (6 h): waiting
  // would serve nothing, so the request is admitted immediately.
  const auto decision = controller->decide(
      request_for(make_spec(1, 2, true), sim::SimTime{},
                  sim::SimTime::from_hours(1.0)),
      sim::SimTime{});
  EXPECT_TRUE(decision.admitted());
}

TEST(PriceThreshold, CapacityGapRequeuesInsteadOfRejecting) {
  // One tiny server, fully occupied by an on-demand VM; price affordable.
  cl::ClusterManager manager(small_cluster(1));
  ASSERT_TRUE(manager.place_vm(make_spec(100, 16, false)).ok());
  cl::AdmissionConfig config;
  config.policy = cl::AdmissionPolicyKind::PriceThreshold;
  config.default_ceiling = 0.5;
  const tr::PriceTrace trace = two_point_trace(0.2, 0.2, 4, 4, 40);
  auto controller = cl::make_admission_controller(
      config, manager, cl::PriceFeed({&trace}, 1.0));

  const auto decision = controller->decide(
      request_for(make_spec(1, 8, true), sim::SimTime{},
                  sim::SimTime::from_hours(6)),
      sim::SimTime{});
  ASSERT_EQ(decision.status, cl::AdmissionDecision::Status::Deferred);
  EXPECT_EQ(decision.reason, cl::AdmissionDecision::Reason::CapacityDeferred);
  // One price step ahead, not the deadline.
  EXPECT_EQ(decision.retry_at, sim::SimTime::from_minutes(5));

  // The failed placement attempt must not pollute the end-to-end stats.
  EXPECT_EQ(controller->cluster_stats().rejections, 0U);

  // Capacity frees up; the queued request lands on the next drain.
  ASSERT_TRUE(manager.remove_vm(100));
  const auto resolved = controller->drain(sim::SimTime::from_minutes(5));
  ASSERT_EQ(resolved.size(), 1U);
  EXPECT_TRUE(resolved[0].decision.admitted());
}

// --- simulator integration --------------------------------------------------

namespace {

std::vector<trace::VmRecord> sim_trace(std::size_t vms = 800) {
  trace::AzureTraceConfig config;
  config.vm_count = vms;
  config.seed = 11;
  config.duration = sim::SimTime::from_hours(72);
  return trace::AzureTraceGenerator(config).generate();
}

simcluster::SimConfig market_sim_config() {
  simcluster::SimConfig config;
  config.server_count = 24;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.market_enabled = true;
  config.market.seed = 7;
  config.market.revocation.model = tr::RevocationModel::PriceCrossing;
  config.market.revocation.bid = 0.5;
  config.market.use_portfolio = false;
  config.market.on_demand_share = 0.3;
  return config;
}

}  // namespace

TEST(AdmissionSim, InfiniteCeilingIsBitIdenticalToAdmitAll) {
  const auto records = sim_trace();
  simcluster::SimConfig admit_all = market_sim_config();
  simcluster::SimConfig price = market_sim_config();
  price.admission.policy = cl::AdmissionPolicyKind::PriceThreshold;
  price.admission.default_ceiling = 100.0;  // never binds

  const auto a = simcluster::TraceDrivenSimulator(records, admit_all).run();
  const auto b = simcluster::TraceDrivenSimulator(records, price).run();
  EXPECT_EQ(b.admission_deferrals, 0U);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.revocation_kills, b.revocation_kills);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_DOUBLE_EQ(a.throughput_loss, b.throughput_loss);
  EXPECT_DOUBLE_EQ(a.cost.total_cost(), b.cost.total_cost());
}

TEST(AdmissionSim, DeferredArrivalsReenterAndAreServed) {
  const auto records = sim_trace();
  simcluster::SimConfig config = market_sim_config();
  config.admission.policy = cl::AdmissionPolicyKind::PriceThreshold;
  config.admission.default_ceiling = 0.4;
  config.admission.max_defer_hours = 8.0;

  const auto metrics = simcluster::TraceDrivenSimulator(records, config).run();
  // The OU price crosses 0.4 on this seed, so some launches defer — and
  // deferred VMs that re-entered carry a measurable start delay.
  EXPECT_GT(metrics.admission_deferrals, 0U);
  EXPECT_GT(metrics.admission_delay_hours, 0.0);
  // Deferrals that expired are rejections; the rest were served.
  EXPECT_LE(metrics.admission_expired, metrics.admission_deferrals);
  EXPECT_GE(metrics.rejections, metrics.admission_expired);
  // Admission-caused unserved demand is billed into the cost report.
  EXPECT_GT(metrics.cost.admission_unserved_core_hours, 0.0);
  EXPECT_DOUBLE_EQ(metrics.cost.admission_unserved_cost,
                   metrics.cost.admission_unserved_core_hours);
}

TEST(AdmissionSim, ZeroCeilingDefersEveryDeflatableButNoOnDemand) {
  const auto records = sim_trace(300);
  simcluster::SimConfig config = market_sim_config();
  config.admission.policy = cl::AdmissionPolicyKind::PriceThreshold;
  config.admission.default_ceiling = 0.01;  // below the price floor
  config.admission.max_defer_hours = 1.0;

  std::size_t deflatable = 0, on_demand = 0;
  for (const auto& record : records) {
    (record.deflatable() ? deflatable : on_demand) += 1;
  }
  const auto metrics = simcluster::TraceDrivenSimulator(records, config).run();
  // Nothing is ever affordable. Deflatable VMs whose lifetime exceeds the
  // 1 h window wait and expire; shorter ones admit immediately
  // (lifetime-limited). On-demand VMs never defer.
  EXPECT_GT(metrics.admission_deferrals, 0U);
  EXPECT_EQ(metrics.admission_expired, metrics.admission_deferrals);
  EXPECT_LE(metrics.admission_deferrals, deflatable);
  EXPECT_GT(metrics.revenue.od_committed_core_hours, 0.0);
}

// --- bid optimizer ----------------------------------------------------------

TEST(BidOptimizer, TwoPointProcessMatchesClosedForm) {
  // 90% of time at 0.2, 10% at 0.8; one upward crossing per cycle.
  // 9 low steps + 1 high step of 5 min each -> cycle = 50 min.
  const tr::PriceTrace trace = two_point_trace(0.2, 0.8, 9, 1, 100);
  tr::RevocationConfig revocation;
  revocation.model = tr::RevocationModel::PriceCrossing;

  tr::BidOptimizerConfig config;
  config.on_demand_price = 1.0;
  config.fallback_discount = 0.5;
  config.class_penalty_hours = {0.0, 0.01};
  const tr::BidOptimizer optimizer(config);

  // Closed form. At b = 0.2: availability 0.9, held mean 0.2, one
  // crossing per 50 min = 1.2/h. At b = 0.8 (or above): availability 1,
  // mean price 0.26, no crossings.
  const double crossings_per_hour = 100.0 / (100.0 * 50.0 / 60.0);
  const double low_cost =
      0.9 * 0.2 + 0.1 * 1.0 * 0.5 + 0.01 * crossings_per_hour;
  const double high_cost = 0.9 * 0.2 + 0.1 * 0.8;
  EXPECT_NEAR(optimizer.expected_cost(trace, 0.2, 0.01, revocation), low_cost,
              1e-9);
  EXPECT_NEAR(optimizer.expected_cost(trace, 0.8, 0.01, revocation), high_cost,
              1e-9);

  // With the tiny penalty, bidding low (0.23 + 0.012 = 0.242) beats
  // holding through the spike (0.26): the optimizer picks 0.2 exactly.
  const tr::ClassBid bid = optimizer.optimize(trace, 1, revocation);
  EXPECT_DOUBLE_EQ(bid.bid, 0.2);
  EXPECT_NEAR(bid.expected_cost, low_cost, 1e-9);
  EXPECT_NEAR(bid.availability, 0.9, 1e-9);
  EXPECT_NEAR(bid.revocation_rate_per_hour, crossings_per_hour, 1e-9);
}

TEST(BidOptimizer, HighPenaltyBidsThroughTheSpike) {
  const tr::PriceTrace trace = two_point_trace(0.2, 0.8, 9, 1, 100);
  tr::RevocationConfig revocation;
  revocation.model = tr::RevocationModel::PriceCrossing;
  tr::BidOptimizerConfig config;
  config.fallback_discount = 0.5;
  config.class_penalty_hours = {0.0, 2.0};  // an interruption hurts
  const tr::BidOptimizer optimizer(config);

  // 0.23 + 0.05 + 2.0 * 1.2 >> 0.26: hold through the spike.
  const tr::ClassBid bid = optimizer.optimize(trace, 1, revocation);
  EXPECT_GE(bid.bid, 0.8);
  EXPECT_DOUBLE_EQ(bid.availability, 1.0);
  EXPECT_DOUBLE_EQ(bid.revocation_rate_per_hour, 0.0);
}

TEST(BidOptimizer, BidsRiseWeaklyWithClassPenalty) {
  const tr::PriceTrace trace = two_point_trace(0.2, 0.8, 9, 1, 100);
  tr::RevocationConfig revocation;
  revocation.model = tr::RevocationModel::PriceCrossing;
  tr::BidOptimizerConfig config;
  config.class_penalty_hours = {0.0, 0.01, 0.1, 0.5, 2.0};
  const tr::BidOptimizer optimizer(config);
  const auto bids = optimizer.optimize_classes(trace, revocation);
  ASSERT_EQ(bids.size(), 5U);
  EXPECT_DOUBLE_EQ(bids[0].bid, 1.0);  // on-demand class: sticker rate
  for (std::size_t c = 2; c < bids.size(); ++c) {
    EXPECT_GE(bids[c].bid, bids[c - 1].bid) << "class " << c;
  }
}

TEST(BidOptimizer, NeverBidsAboveTheOnDemandPrice) {
  // Spikes above the on-demand rate are not worth outbidding: buying
  // on-demand dominates. Candidates are capped at the sticker price.
  const tr::PriceTrace trace = two_point_trace(0.2, 3.0, 9, 1, 100);
  tr::RevocationConfig revocation;
  revocation.model = tr::RevocationModel::PriceCrossing;
  tr::BidOptimizerConfig config;
  config.class_penalty_hours = {0.0, 100.0};  // begs for availability
  const tr::BidOptimizer optimizer(config);
  const tr::ClassBid bid = optimizer.optimize(trace, 1, revocation);
  EXPECT_LE(bid.bid, 1.0);
}

namespace {

/// A link-time plugin revocation model: one revocation every two hours,
/// whatever the bid.
class SteadyRevocations final : public tr::RevocationModelPolicy {
 public:
  [[nodiscard]] std::vector<tr::RevocationEvent> schedule_for(
      const tr::RevocationConfig&, std::uint64_t, std::size_t, sim::SimTime,
      const tr::PriceTrace*) const override {
    return {};
  }
  [[nodiscard]] double expected_rate_per_hour(
      const tr::RevocationConfig&,
      const tr::PriceTrace*) const noexcept override {
    return 0.5;
  }
};

const deflate::policy::PolicyRegistration<tr::RevocationSurface>
    kRegisterSteady{{.name = "test-steady",
                     .description = "test plugin: 0.5 revocations per hour",
                     .aliases = {},
                     .params = {},
                     .make = [] {
                       return std::make_shared<const SteadyRevocations>();
                     }}};

}  // namespace

TEST(BidOptimizer, ModelChosenByNameBidsLikeItsEnumAlias) {
  const tr::PriceTrace trace = two_point_trace(0.2, 0.8, 9, 1, 100);
  tr::RevocationConfig by_enum;
  by_enum.model = tr::RevocationModel::PriceCrossing;
  tr::RevocationConfig by_name;
  by_name.model_name = "price";  // the enum alias stays at None
  tr::BidOptimizerConfig config;
  config.class_penalty_hours = {0.0, 0.01, 0.1, 0.5, 2.0};
  const tr::BidOptimizer optimizer(config);

  const auto expected = optimizer.optimize_classes(trace, by_enum);
  const auto bids = optimizer.optimize_classes(trace, by_name);
  ASSERT_EQ(bids.size(), expected.size());
  for (std::size_t c = 0; c < bids.size(); ++c) {
    EXPECT_EQ(bids[c].bid, expected[c].bid) << "class " << c;
    EXPECT_EQ(bids[c].revocation_rate_per_hour,
              expected[c].revocation_rate_per_hour)
        << "class " << c;
    EXPECT_EQ(bids[c].expected_cost, expected[c].expected_cost)
        << "class " << c;
  }
  // The cheapest class bids under the spike and rides its crossings.
  EXPECT_DOUBLE_EQ(bids[1].bid, 0.2);
  EXPECT_GT(bids[1].revocation_rate_per_hour, 0.0);
}

TEST(BidOptimizer, PluginModelContributesItsRate) {
  ASSERT_TRUE(kRegisterSteady.registered);
  const tr::PriceTrace trace = two_point_trace(0.2, 0.8, 9, 1, 100);
  tr::RevocationConfig plugin;
  plugin.model_name = "test-steady";
  tr::BidOptimizerConfig config;
  config.class_penalty_hours = {0.0, 0.1, 1.0};
  const tr::BidOptimizer optimizer(config);

  const auto bids = optimizer.optimize_classes(trace, plugin);
  ASSERT_EQ(bids.size(), 3U);
  for (std::size_t c = 1; c < bids.size(); ++c) {
    EXPECT_DOUBLE_EQ(bids[c].revocation_rate_per_hour, 0.5) << "class " << c;
  }
  // The rate prices every bid alike: penalty * 0.5 on top of the
  // rate-free objective.
  tr::RevocationConfig none;
  EXPECT_DOUBLE_EQ(optimizer.expected_cost(trace, 0.8, 1.0, plugin),
                   optimizer.expected_cost(trace, 0.8, 1.0, none) + 0.5);
}

TEST(BidOptimizer, PlanReplacesStaticBidsAndPublishesCeilings) {
  tr::MarketEngineConfig config;
  config.seed = 7;
  config.revocation.model = tr::RevocationModel::PriceCrossing;
  config.revocation.bid = 0.5;
  config.optimize_bids = true;
  config.use_portfolio = false;
  config.on_demand_share = 0.3;
  const tr::TransientMarketEngine engine(config);
  const tr::CapacityPlan plan =
      engine.plan(20, sim::SimTime::from_hours(72));

  ASSERT_EQ(plan.optimized_bids.size(), 1U);
  ASSERT_EQ(plan.class_ceilings.size(),
            tr::BidOptimizerConfig{}.class_penalty_hours.size());
  EXPECT_GT(plan.optimized_bids[0], 0.0);
  EXPECT_LE(plan.optimized_bids[0], 1.0);
  ASSERT_EQ(plan.markets.size(), 1U);
  ASSERT_FALSE(plan.markets[0].class_bids.empty());
  // The fleet bid is the mean of the deflatable-class optima.
  double mean = 0.0;
  for (std::size_t c = 1; c < plan.markets[0].class_bids.size(); ++c) {
    mean += plan.markets[0].class_bids[c].bid;
  }
  mean /= static_cast<double>(plan.markets[0].class_bids.size() - 1);
  EXPECT_NEAR(plan.optimized_bids[0], mean, 1e-12);

  // Same config without the optimizer keeps the hand-set bid and
  // publishes no ceilings.
  tr::MarketEngineConfig legacy = config;
  legacy.optimize_bids = false;
  const tr::CapacityPlan legacy_plan =
      tr::TransientMarketEngine(legacy).plan(20, sim::SimTime::from_hours(72));
  EXPECT_TRUE(legacy_plan.optimized_bids.empty());
  EXPECT_TRUE(legacy_plan.class_ceilings.empty());
}

// --- golden: AdmitAll is the legacy behavior, explicitly -------------------

TEST(AdmissionGolden, ExplicitAdmitAllReproducesGoldenRevocationOutcome) {
  // The same trace/config as test_golden_revocation, with the admission
  // policy explicitly set to AdmitAll: the protocol shim must be bit-
  // identical to the pre-admission pipeline.
  trace::AzureTraceConfig trace_config;
  trace_config.vm_count = 1500;
  trace_config.seed = 11;
  trace_config.duration = sim::SimTime::from_hours(72);
  const auto records = trace::AzureTraceGenerator(trace_config).generate();

  simcluster::SimConfig config;
  config.server_count = 40;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.mode = cl::ReclamationMode::Deflation;
  config.market_enabled = true;
  config.market.seed = 7;
  config.market.revocation.model = tr::RevocationModel::TemporallyConstrained;
  config.market.revocation.max_lifetime_hours = 24.0;
  config.market.portfolio.on_demand_floor = 0.2;
  config.admission.policy = cl::AdmissionPolicyKind::AdmitAll;

  simcluster::TraceDrivenSimulator simulator(records, config);
  const simcluster::SimMetrics metrics = simulator.run();
  EXPECT_EQ(metrics.revocations, 94U);
  EXPECT_EQ(metrics.revocation_migrations, 241U);
  EXPECT_EQ(metrics.revocation_kills, 0U);
  EXPECT_EQ(metrics.admission_deferrals, 0U);
  EXPECT_EQ(metrics.admission_expired, 0U);
  EXPECT_DOUBLE_EQ(metrics.cost.admission_unserved_cost, 0.0);
  EXPECT_NEAR(metrics.cost.saving_percent(), 44.7, 0.1);
  EXPECT_NEAR(metrics.cost.total_cost(), 76475.0, 5.0);
}
