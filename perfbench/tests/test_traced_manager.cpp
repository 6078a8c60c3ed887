// The span-recording manager decorator and the timed admission policies
// must not change a single decision.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/sharded_manager.hpp"
#include "sim_workloads.hpp"
#include "trace/azure.hpp"
#include "traced_manager.hpp"

namespace perfbench {
namespace {

namespace cluster = deflate::cluster;
namespace sc = deflate::simcluster;
namespace trace = deflate::trace;

std::vector<trace::VmRecord> small_trace(std::size_t vms, double hours) {
  trace::AzureTraceConfig config;
  config.vm_count = vms;
  config.seed = 5;
  config.duration = deflate::sim::SimTime::from_hours(hours);
  return trace::AzureTraceGenerator(config).generate();
}

cluster::ShardedClusterConfig fleet(std::size_t shards) {
  cluster::ShardedClusterConfig config;
  config.cluster.server_count = 24;
  config.cluster.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.shard_count = shards;
  config.worker_threads = 1;
  return config;
}

void expect_same(const cluster::PlacementResult& a,
                 const cluster::PlacementResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.host_id, b.host_id);
  EXPECT_EQ(a.needed_reclamation, b.needed_reclamation);
  EXPECT_EQ(a.launch_fraction, b.launch_fraction);
}

void expect_same(const cluster::ClusterStats& a, const cluster::ClusterStats& b) {
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.reclamation_attempts, b.reclamation_attempts);
  EXPECT_EQ(a.reclamation_failures, b.reclamation_failures);
  EXPECT_EQ(a.deflated_launches, b.deflated_launches);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(a.restorations, b.restorations);
  EXPECT_EQ(a.revocation_migrations, b.revocation_migrations);
  EXPECT_EQ(a.revocation_kills, b.revocation_kills);
}

/// Replays arrivals and departures (with periodic revocations, restores,
/// drains and tick flushes) against both managers, comparing every result.
void replay_both(cluster::ClusterManagerBase& bare,
                 cluster::ClusterManagerBase& traced) {
  struct Event {
    deflate::sim::SimTime at;
    bool start;
    std::size_t index;
  };
  const auto records = small_trace(400, 24.0);
  std::vector<Event> events;
  for (std::size_t i = 0; i < records.size(); ++i) {
    events.push_back({records[i].start, true, i});
    events.push_back({records[i].end, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.start != b.start) return !a.start;
    return a.index < b.index;
  });
  std::size_t step = 0;
  for (const Event& event : events) {
    const auto& record = records[event.index];
    if (event.start) {
      const auto spec = record.to_spec();
      expect_same(bare.place_vm(spec), traced.place_vm(spec));
    } else {
      EXPECT_EQ(bare.remove_vm(record.id), traced.remove_vm(record.id));
    }
    ++step;
    const std::size_t server = (step / 97) % bare.server_count();
    if (step % 97 == 0) {
      const auto a = bare.revoke_server(server);
      const auto b = traced.revoke_server(server);
      EXPECT_EQ(a.vms_displaced, b.vms_displaced);
      EXPECT_EQ(a.vms_migrated, b.vms_migrated);
      EXPECT_EQ(a.vms_killed, b.vms_killed);
    } else if (step % 97 == 40) {
      bare.restore_server(server);
      traced.restore_server(server);
    } else if (step % 97 == 70) {
      bare.drain_server((server + 1) % bare.server_count());
      traced.drain_server((server + 1) % traced.server_count());
    }
    if (step % 5 == 0) {
      bare.flush_views();
      traced.flush_views();
    }
  }
  expect_same(bare.stats(), traced.stats());
  EXPECT_EQ(bare.active_server_count(), traced.active_server_count());
  for (const auto r : {deflate::res::Resource::Cpu,
                       deflate::res::Resource::Memory}) {
    EXPECT_EQ(bare.total_committed()[r], traced.total_committed()[r]);
    EXPECT_EQ(bare.total_allocated()[r], traced.total_allocated()[r]);
  }
}

TEST(TracedManager, FlatFleetDecidesLikeTheBareManager) {
  SpanRecorder spans;
  const auto bare = cluster::make_cluster_manager(fleet(1));
  TracedManager traced(cluster::make_cluster_manager(fleet(1)), &spans);
  replay_both(*bare, traced);
  const auto stats = spans.stats();
  EXPECT_EQ(stats.at("manager.place_vm").calls, 400u);
  EXPECT_EQ(stats.at("manager.remove_vm").calls, 400u);
  EXPECT_GT(stats.at("manager.revoke_server").calls, 0u);
  EXPECT_GT(stats.at("manager.flush_views").calls, 0u);
}

TEST(TracedManager, FourShardFleetDecidesLikeTheBareManager) {
  SpanRecorder spans;
  const auto bare = cluster::make_cluster_manager(fleet(4));
  TracedManager traced(cluster::make_cluster_manager(fleet(4)), &spans);
  replay_both(*bare, traced);
  EXPECT_EQ(spans.stats().at("manager.place_vm").calls, 400u);
}

TEST(TracedManager, NullRecorderRecordsNothing) {
  const auto bare = cluster::make_cluster_manager(fleet(4));
  TracedManager traced(cluster::make_cluster_manager(fleet(4)), nullptr);
  replay_both(*bare, traced);
}

TEST(SpanRecorder, SelfTimeExcludesChildren) {
  SpanRecorder spans;
  const auto outer = spans.intern("outer");
  const auto inner = spans.intern("inner");
  {
    const SpanRecorder::Scope a(&spans, outer);
    const SpanRecorder::Scope b(&spans, inner);
  }
  ASSERT_EQ(spans.spans().size(), 2u);
  EXPECT_EQ(spans.spans()[1].parent, 0u);
  const auto stats = spans.stats();
  EXPECT_EQ(stats.at("outer").self_ns,
            stats.at("outer").total_ns - stats.at("inner").total_ns);
  EXPECT_EQ(stats.at("inner").self_ns, stats.at("inner").total_ns);
}

/// The untraced runs select the timed registry policies; they must decide
/// exactly like the builtins the workloads name.
TEST(TimedAdmission, ReplayShapeMatchesAdmitAll) {
  register_timed_admission_policies();
  const auto records = small_trace(600, 24.0);
  sc::SimConfig config =
      replay_config(sc::TraceDrivenSimulator::servers_for_overcommit(
          records, {48.0, 128.0 * 1024.0, 1e9, 1e9}, 0.2));
  sc::SimConfig timed = config;
  timed.policies.admission.name = kTimedAdmitAll;
  std::vector<double> samples;
  set_decision_sink(&samples);
  const auto a = sc::TraceDrivenSimulator(records, timed).run();
  set_decision_sink(nullptr);
  const auto b = sc::TraceDrivenSimulator(records, config).run();
  EXPECT_EQ(sim_digest(a), sim_digest(b));
  EXPECT_EQ(samples.size(), 600u);
}

TEST(TimedAdmission, MarketShapeMatchesBidOptimized) {
  register_timed_admission_policies();
  const auto records = small_trace(800, 72.0);
  sc::SimConfig config =
      market_config(sc::TraceDrivenSimulator::servers_for_overcommit(
          records, {48.0, 128.0 * 1024.0, 1e9, 1e9}, -0.2));
  sc::SimConfig timed = config;
  timed.policies.admission.name = kTimedBidOpt;
  const auto a = sc::TraceDrivenSimulator(records, timed).run();
  const auto b = sc::TraceDrivenSimulator(records, config).run();
  EXPECT_EQ(sim_digest(a), sim_digest(b));
  EXPECT_GT(a.control_reopts, 0u);
}

}  // namespace
}  // namespace perfbench
