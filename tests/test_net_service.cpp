// The admission service end to end over loopback TCP: handshake,
// batching, pipelining, per-connection deferral streams, the plugin
// policy registry, and protocol-violation handling (src/net/server.hpp,
// src/net/client.hpp, src/net/registry.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/registry.hpp"
#include "net/server.hpp"

namespace net = deflate::net;
namespace cluster = deflate::cluster;
namespace hv = deflate::hv;
namespace sim = deflate::sim;

namespace {

hv::VmSpec small_vm(std::uint64_t id, bool deflatable = true) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = 2;
  spec.memory_mib = 4096.0;
  spec.priority = deflatable ? 0.25 : 1.0;
  spec.deflatable = deflatable;
  return spec;
}

cluster::AdmissionRequest request_at(std::uint64_t id, double hours,
                                     bool deflatable = true) {
  return cluster::AdmissionRequest::from_spec(
      small_vm(id, deflatable), sim::SimTime::from_hours(hours));
}

/// A config whose price feed quotes a constant price *above* the class
/// ceilings, so every deflatable request defers until its deadline.
net::ServiceConfig always_expensive_config() {
  net::ServiceConfig config;
  config.server_count = 10;
  config.admission_policy = "price";
  config.admission.default_ceiling = 0.1;
  config.admission.max_defer_hours = 6.0;
  config.price_trace_hours = 48.0;
  // No noise, no shocks, floored at 0.2: the quote can never reach the
  // 0.1 ceiling, deterministically.
  config.spot.mean_price = 0.5;
  config.spot.volatility = 0.0;
  config.spot.shock_rate_per_hour = 0.0;
  config.spot.floor_price = 0.2;
  return config;
}

}  // namespace

TEST(NetService, HelloAdvertisesRegistryPolicies) {
  net::ServiceConfig config;
  config.server_count = 4;
  config.admission_policy = "price";
  config.banner = "deflated/test";
  net::Server server(config);
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);

  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(client->hello().server, "deflated/test");
  EXPECT_EQ(client->hello().admission_policy, "price");
  EXPECT_EQ(client->hello().codec_version, net::kCodecVersion);
  const auto& policies = client->hello().policies;
  for (const char* builtin : {"admit-all", "price", "bid-opt"}) {
    EXPECT_NE(std::find(policies.begin(), policies.end(), builtin),
              policies.end())
        << builtin;
  }
  server.stop();
}

TEST(NetService, BatchedAdmissionPlacesEveryVm) {
  net::ServiceConfig config;
  config.server_count = 20;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    ids.push_back(client->submit(request_at(i, 0.01 * double(i))));
  }
  ASSERT_TRUE(client->flush());  // one write, 50 pipelined decisions back

  ASSERT_EQ(client->decisions().size(), ids.size());
  for (const auto id : ids) {
    const auto& decision = client->decisions().at(id);
    EXPECT_TRUE(decision.admitted());
    EXPECT_EQ(decision.reason, cluster::AdmissionDecision::Reason::Admitted);
    EXPECT_GT(decision.quoted_price, 0.0);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.admission_requests, ids.size());
  EXPECT_EQ(stats.decisions, ids.size());
  EXPECT_EQ(stats.connections, 1U);
  server.stop();
}

TEST(NetService, ConcurrentClientsShareOneFleet) {
  net::ServiceConfig config;
  config.server_count = 12;
  config.worker_threads = 4;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  constexpr int kClients = 4;
  constexpr std::uint64_t kPerClient = 30;
  std::array<std::size_t, kClients> decided{};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::Client::connect(server.port());
      ASSERT_TRUE(client.has_value());
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        // Distinct vm ids per client: the fleet is shared.
        client->submit(request_at(1000 * (c + 1) + i, 0.05 * double(i)));
      }
      ASSERT_TRUE(client->flush());
      decided[static_cast<std::size_t>(c)] = client->decisions().size();
    });
  }
  for (auto& thread : threads) thread.join();

  for (const auto count : decided) EXPECT_EQ(count, kPerClient);
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections, kClients);
  EXPECT_EQ(stats.admission_requests, kClients * kPerClient);
  server.stop();
}

TEST(NetService, DeferralResolvedInStreamOnLaterRequest) {
  net::Server server(always_expensive_config());
  ASSERT_TRUE(server.start());
  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());

  // Deflatable request at t=0: price 0.2+ against ceiling 0.1 → deferred.
  const auto deferred_id = client->submit(request_at(1, 0.0));
  ASSERT_TRUE(client->flush());
  {
    const auto& decision = client->decisions().at(deferred_id);
    ASSERT_EQ(decision.status, cluster::AdmissionDecision::Status::Deferred);
    EXPECT_EQ(decision.reason,
              cluster::AdmissionDecision::Reason::PriceDeferred);
    EXPECT_GT(decision.retry_at, sim::SimTime{});
  }
  EXPECT_TRUE(client->resolved_deferrals().empty());

  // An on-demand request lands 7h later — past the 6h deferral window.
  // Its flush must carry the drained resolution in-stream, ahead of the
  // direct response.
  const auto later_id = client->submit(request_at(2, 7.0, false));
  ASSERT_TRUE(client->flush());

  EXPECT_TRUE(client->decisions().at(later_id).admitted());
  ASSERT_EQ(client->resolved_deferrals().count(deferred_id), 1U);
  const auto& resolution = client->resolved_deferrals().at(deferred_id);
  EXPECT_EQ(resolution.status, cluster::AdmissionDecision::Status::Rejected);
  EXPECT_EQ(resolution.reason,
            cluster::AdmissionDecision::Reason::DeadlineExpired);
  // The update also overwrote the stale Deferred entry.
  EXPECT_EQ(client->decisions().at(deferred_id).status,
            cluster::AdmissionDecision::Status::Rejected);
  server.stop();
}

namespace {

/// The plugin surface: a policy the library does not know, registered by
/// name and served by the daemon without touching its dispatch.
class RejectAllController final : public cluster::AdmissionController {
 public:
  using cluster::AdmissionController::AdmissionController;

 protected:
  cluster::AdmissionDecision evaluate(const cluster::AdmissionRequest&,
                                      sim::SimTime now) override {
    cluster::AdmissionDecision decision;
    decision.status = cluster::AdmissionDecision::Status::Rejected;
    decision.reason = cluster::AdmissionDecision::Reason::CapacityRejected;
    decision.quoted_price = feed_.quote(now);
    return decision;
  }
};

void ensure_reject_all_registered() {
  net::AdmissionPolicyEntry entry;
  entry.name = "reject-all";
  entry.description = "test plugin: reject every request";
  entry.make = [](const cluster::AdmissionConfig& config,
                  cluster::ClusterManagerBase& manager,
                  cluster::PriceFeed feed) {
    return std::make_unique<RejectAllController>(config, manager,
                                                 std::move(feed));
  };
  // May already be registered by an earlier test in this process.
  (void)net::AdmissionPolicyRegistry::instance().add(std::move(entry));
}

}  // namespace

TEST(NetService, PluginPolicyServedByName) {
  ensure_reject_all_registered();
  ASSERT_NE(net::AdmissionPolicyRegistry::instance().find("reject-all"),
            nullptr);

  net::ServiceConfig config;
  config.server_count = 4;
  config.admission_policy = "reject-all";
  net::Server server(config);
  ASSERT_TRUE(server.start());

  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());
  const auto& policies = client->hello().policies;
  EXPECT_NE(std::find(policies.begin(), policies.end(), "reject-all"),
            policies.end());
  const auto decision = client->admit(request_at(1, 0.0));
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->status, cluster::AdmissionDecision::Status::Rejected);
  server.stop();
}

TEST(NetService, UnknownPolicyNameThrows) {
  net::ServiceConfig config;
  config.admission_policy = "no-such-policy";
  EXPECT_THROW(net::Server{config}, std::invalid_argument);
}

TEST(NetService, DuplicateRegistrationRefused) {
  ensure_reject_all_registered();
  net::AdmissionPolicyEntry duplicate;
  duplicate.name = "reject-all";
  duplicate.description = "imposter";
  duplicate.make = [](const cluster::AdmissionConfig&,
                      cluster::ClusterManagerBase&, cluster::PriceFeed) {
    return std::unique_ptr<cluster::AdmissionController>{};
  };
  EXPECT_FALSE(
      net::AdmissionPolicyRegistry::instance().add(std::move(duplicate)));
}

TEST(NetService, MalformedFrameAnswersErrorThenCloses) {
  net::ServiceConfig config;
  config.server_count = 4;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  net::Socket raw = net::connect_loopback(server.port());
  ASSERT_TRUE(raw.valid());
  const std::uint8_t garbage[] = {0x00, 0x01, 0x02, 0x03,
                                  0x04, 0x05, 0x06, 0x07};
  ASSERT_TRUE(raw.send_all(garbage, sizeof(garbage)));

  // Read everything until the server closes: Hello, then the ErrorMsg.
  net::FrameBuffer frames;
  std::vector<net::Message> received;
  std::uint8_t chunk[4096];
  for (;;) {
    const long n = raw.recv_some(chunk, sizeof(chunk));
    if (n <= 0) break;
    frames.append(chunk, static_cast<std::size_t>(n));
    for (;;) {
      auto result = frames.next();
      if (result.status != net::DecodeStatus::Ok) break;
      received.push_back(std::move(result.message));
    }
  }
  ASSERT_EQ(received.size(), 2U);
  EXPECT_TRUE(std::holds_alternative<net::Hello>(received[0]));
  ASSERT_TRUE(std::holds_alternative<net::ErrorMsg>(received[1]));
  EXPECT_EQ(std::get<net::ErrorMsg>(received[1]).code, 400U);
  EXPECT_EQ(server.stats().malformed_frames, 1U);
  server.stop();
}

TEST(NetService, RawPlacementPathOverSocket) {
  net::ServiceConfig config;
  config.server_count = 8;
  net::Server server(config);
  ASSERT_TRUE(server.start());
  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());

  net::PlaceRequest request;
  request.vm_id = 99;
  request.demand = {4.0, 8192.0, 100.0, 1000.0};
  request.priority = 0.5;
  request.deflatable = true;
  const auto response = client->place(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->vm_id, 99U);
  EXPECT_TRUE(response->accepted);
  EXPECT_EQ(server.stats().place_requests, 1U);
  server.stop();
}

TEST(NetService, StopWakesIdleConnectionsAndTheAcceptLoop) {
  net::ServiceConfig config;
  config.server_count = 4;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  // Three idle peers: connected and greeted, nothing sent. Their handlers
  // are parked in recv() and the accept thread is back in accept().
  std::vector<net::Socket> peers;
  for (int i = 0; i < 3; ++i) {
    net::Socket peer = net::connect_loopback(server.port());
    ASSERT_TRUE(peer.valid());
    net::FrameBuffer frames;
    std::uint8_t chunk[4096];
    net::DecodeResult hello;
    while (hello.status != net::DecodeStatus::Ok) {
      const long n = peer.recv_some(chunk, sizeof(chunk));
      ASSERT_GT(n, 0);
      frames.append(chunk, static_cast<std::size_t>(n));
      hello = frames.next();
      ASSERT_NE(hello.status, net::DecodeStatus::Malformed);
    }
    EXPECT_TRUE(std::holds_alternative<net::Hello>(hello.message));
    peers.push_back(std::move(peer));
  }

  server.stop();
  // Every idle peer sees an orderly close, and the listener is gone.
  for (net::Socket& peer : peers) {
    std::uint8_t byte = 0;
    EXPECT_EQ(peer.recv_some(&byte, 1), 0);
  }
  EXPECT_EQ(server.stats().connections, 3U);
  EXPECT_FALSE(net::connect_loopback(server.port()).valid());
}

TEST(NetService, ShutdownFrameStopsTheServer) {
  net::ServiceConfig config;
  config.server_count = 4;
  net::Server server(config);
  ASSERT_TRUE(server.start());
  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(client->shutdown_server());
  server.wait();  // returns because the Shutdown frame was served
  server.stop();
  // A new connection must now fail: the listener is gone.
  EXPECT_FALSE(net::connect_loopback(server.port()).valid());
}
