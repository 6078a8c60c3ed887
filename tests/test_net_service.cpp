// The admission service end to end over loopback TCP: handshake,
// batching, pipelining, per-connection deferral streams, the plugin
// policy registry, protocol-violation handling, and liveness under idle,
// slow and non-reading peers (src/net/server.hpp, src/net/client.hpp,
// cluster::AdmissionRegistry).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "cluster/admission.hpp"
#include "net/client.hpp"
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

/// Every wait in the liveness tests is bounded by this, so a server that
/// stops serving fails the test instead of hanging it.
constexpr std::chrono::seconds kDeadline{20};

/// Bounds the socket's blocking reads by kDeadline (recv then fails).
void set_recv_deadline(const net::Socket& socket) {
  timeval timeout{};
  timeout.tv_sec = kDeadline.count();
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
}

/// Reads until `count` frames decoded (or the peer closes, the read
/// deadline passes, or a frame is malformed) and returns what arrived.
std::vector<net::Message> read_messages(net::Socket& socket,
                                        net::FrameBuffer& frames,
                                        std::size_t count) {
  std::vector<net::Message> received;
  std::uint8_t chunk[4096];
  while (received.size() < count) {
    auto result = frames.next();
    if (result.status == net::DecodeStatus::Malformed) break;
    if (result.status == net::DecodeStatus::Ok) {
      received.push_back(std::move(result.message));
      continue;
    }
    const long n = socket.recv_some(chunk, sizeof(chunk));
    if (n <= 0) break;
    frames.append(chunk, static_cast<std::size_t>(n));
  }
  return received;
}

/// A raw connection that has read the server's Hello; invalid when the
/// greeting did not arrive within kDeadline.
net::Socket greeted_peer(std::uint16_t port) {
  net::Socket peer = net::connect_loopback(port);
  if (!peer.valid()) return peer;
  set_recv_deadline(peer);
  net::FrameBuffer frames;
  const auto hello = read_messages(peer, frames, 1);
  if (hello.size() != 1 || !std::holds_alternative<net::Hello>(hello[0])) {
    return net::Socket{};
  }
  return peer;
}

/// Runs `body` on its own thread and waits at most kDeadline for it. On
/// timeout it stops the server, which closes every connection so the body
/// fails instead of hanging; returns whether the body finished in time.
bool finishes_within_deadline(net::Server& server,
                              const std::function<void()>& body) {
  auto done = std::async(std::launch::async, body);
  const bool in_time =
      done.wait_for(kDeadline) == std::future_status::ready;
  if (!in_time) server.stop();
  done.wait();
  return in_time;
}

/// One Client connects, sends `count` requests as one batch and checks
/// that every one is decided.
void run_batched_client(std::uint16_t port, std::uint64_t first_id,
                        std::uint64_t count) {
  auto client = net::Client::connect(port);
  ASSERT_TRUE(client.has_value());
  for (std::uint64_t i = 0; i < count; ++i) {
    client->submit(request_at(first_id + i, 0.01 * double(i)));
  }
  ASSERT_TRUE(client->flush());
  EXPECT_EQ(client->decisions().size(), count);
}

/// `count` AdmissionRequest frames (request ids 1..count, vm ids from
/// `first_id`) in one buffer, as a pipelining client would write them.
std::vector<std::uint8_t> request_batch(std::uint64_t first_id,
                                        std::uint64_t count,
                                        bool deflatable = true) {
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t i = 0; i < count; ++i) {
    net::AdmissionRequestMsg msg;
    msg.request_id = i + 1;
    msg.request = request_at(first_id + i, 0.01 * double(i), deflatable);
    const auto frame = net::encode_frame(net::Message{msg});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
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
  const auto& surfaces = client->hello().surfaces;
  ASSERT_FALSE(surfaces.empty());
  EXPECT_EQ(surfaces.front().surface, "admission");
  const auto& policies = surfaces.front().policies;
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

TEST(NetService, RepeatedVmIdDeferralsResolveUnderTheirOwnRequestIds) {
  net::Server server(always_expensive_config());
  ASSERT_TRUE(server.start());
  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());

  // Two requests for the same vm id, both deferred: the resolutions must
  // still reach the client under the request ids it submitted them with.
  const auto first = client->submit(request_at(5, 0.0));
  const auto second = client->submit(request_at(5, 0.5));
  ASSERT_TRUE(client->flush());
  ASSERT_EQ(client->decisions().at(first).status,
            cluster::AdmissionDecision::Status::Deferred);
  ASSERT_EQ(client->decisions().at(second).status,
            cluster::AdmissionDecision::Status::Deferred);

  // Past both deadlines: both resolutions drain ahead of this decision.
  (void)client->submit(request_at(6, 7.0, false));
  ASSERT_TRUE(client->flush());

  std::vector<std::uint64_t> resolved_ids;
  for (const auto& [id, decision] : client->resolved_deferrals()) {
    resolved_ids.push_back(id);
    EXPECT_EQ(decision.reason,
              cluster::AdmissionDecision::Reason::DeadlineExpired);
  }
  EXPECT_EQ(resolved_ids, (std::vector<std::uint64_t>{first, second}));
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
  cluster::AdmissionRegistry::Entry entry;
  entry.name = "reject-all";
  entry.description = "test plugin: reject every request";
  entry.make = [](const cluster::AdmissionConfig& config,
                  cluster::ClusterManagerBase& manager,
                  cluster::PriceFeed feed) {
    return std::make_unique<RejectAllController>(config, manager,
                                                 std::move(feed));
  };
  // May already be registered by an earlier test in this process.
  (void)cluster::AdmissionRegistry::instance().add(std::move(entry));
}

}  // namespace

TEST(NetService, PluginPolicyServedByName) {
  ensure_reject_all_registered();
  ASSERT_NE(cluster::AdmissionRegistry::instance().find("reject-all"),
            nullptr);

  net::ServiceConfig config;
  config.server_count = 4;
  config.admission_policy = "reject-all";
  net::Server server(config);
  ASSERT_TRUE(server.start());

  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());
  const auto& policies = client->hello().surfaces.front().policies;
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
  cluster::AdmissionRegistry::Entry duplicate;
  duplicate.name = "reject-all";
  duplicate.description = "imposter";
  duplicate.make = [](const cluster::AdmissionConfig&,
                      cluster::ClusterManagerBase&, cluster::PriceFeed) {
    return std::unique_ptr<cluster::AdmissionController>{};
  };
  EXPECT_FALSE(
      cluster::AdmissionRegistry::instance().add(std::move(duplicate)));
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

TEST(NetService, AdmitAllRequestPlacesLikeABarePlaceVm) {
  net::ServiceConfig config;
  config.server_count = 8;
  net::Server server(config);
  ASSERT_TRUE(server.start());
  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());

  const cluster::AdmissionRequest request = request_at(99, 0.0);
  const auto decision = client->admit(request);
  ASSERT_TRUE(decision.has_value());
  // The same fleet, built from the same config, places the bare spec on
  // the same host at the same fraction.
  net::ServiceCore core(config);
  const cluster::PlacementResult placed = core.manager().place_vm(request.spec);
  EXPECT_TRUE(decision->admitted());
  EXPECT_EQ(decision->placement.status, placed.status);
  EXPECT_EQ(decision->placement.host_id, placed.host_id);
  EXPECT_EQ(decision->placement.launch_fraction, placed.launch_fraction);
  EXPECT_EQ(server.stats().admission_requests, 1U);
  server.stop();
}

TEST(NetService, StopWakesIdleConnectionsAndTheAcceptLoop) {
  net::ServiceConfig config;
  config.server_count = 4;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  // Three idle peers: connected and greeted, nothing sent, so the loop is
  // parked in poll().
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

TEST(NetService, IdleSocketsDoNotStarveAnActiveClient) {
  // Four greeted peers that never send a byte: the daemon must still
  // greet and serve a fifth client.
  net::ServiceConfig config;
  config.server_count = 20;
  net::Server server(config);
  ASSERT_TRUE(server.start());
  std::vector<net::Socket> idle;
  for (int i = 0; i < 4; ++i) {
    idle.push_back(greeted_peer(server.port()));
    ASSERT_TRUE(idle.back().valid()) << "idle peer " << i << " not greeted";
  }
  EXPECT_TRUE(finishes_within_deadline(
      server, [&server] { run_batched_client(server.port(), 1, 50); }))
      << "an active client was starved by 4 idle connections";
  EXPECT_EQ(server.stats().connections, 5U);
  EXPECT_EQ(server.stats().admission_requests, 50U);
  server.stop();
}

TEST(NetService, ManyIdleSocketsAndOneActiveClient) {
  net::ServiceConfig config;
  config.server_count = 20;
  net::Server server(config);
  ASSERT_TRUE(server.start());
  std::vector<net::Socket> idle;
  for (int i = 0; i < 64; ++i) {
    idle.push_back(greeted_peer(server.port()));
    ASSERT_TRUE(idle.back().valid()) << "idle peer " << i << " not greeted";
  }
  EXPECT_TRUE(finishes_within_deadline(
      server, [&server] { run_batched_client(server.port(), 1, 50); }));
  EXPECT_EQ(server.stats().connections, 65U);
  server.stop();
  // The idle peers were held open all along and now see the close.
  for (net::Socket& peer : idle) {
    std::uint8_t byte = 0;
    EXPECT_EQ(peer.recv_some(&byte, 1), 0);
  }
}

TEST(NetService, PeerThatNeverReadsDoesNotBlockOthers) {
  net::ServiceConfig config;
  config.server_count = 2;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  // The silent peer pipelines far more decisions (51 bytes each) than the
  // socket buffers and the server's output bound hold, then reads nothing.
  // On-demand requests: once the fleet is full each is a cheap flat
  // rejection, so the volume costs bytes rather than placement work.
  constexpr std::uint64_t kSilentRequests = 200000;
  net::Socket silent = greeted_peer(server.port());
  ASSERT_TRUE(silent.valid());
  const std::vector<std::uint8_t> batch =
      request_batch(1'000'000, kSilentRequests, false);
  std::atomic<bool> sent_all{false};
  std::thread sender([&] {
    sent_all = silent.send_all(batch.data(), batch.size());
  });

  EXPECT_TRUE(finishes_within_deadline(
      server, [&server] { run_batched_client(server.port(), 1, 50); }))
      << "a peer that never reads blocked another client";

  // The server stops reading the silent peer once its output is full, so
  // it stalls well short of the whole batch.
  std::uint64_t stalled_at = 0;
  const auto give_up = std::chrono::steady_clock::now() + kDeadline;
  for (std::uint64_t previous = ~std::uint64_t{0};
       std::chrono::steady_clock::now() < give_up;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stalled_at = server.stats().admission_requests;
    if (stalled_at == previous) break;
    previous = stalled_at;
  }
  EXPECT_LT(stalled_at, kSilentRequests) << "output to the peer is unbounded";

  // Now read: every request gets its decision, in order.
  std::uint64_t decided = 0;
  net::FrameBuffer frames;
  std::vector<std::uint8_t> chunk(1 << 16);
  while (decided < kSilentRequests) {
    auto result = frames.next();
    if (result.status == net::DecodeStatus::Ok) {
      const auto* decision =
          std::get_if<net::AdmissionDecisionMsg>(&result.message);
      if (decision == nullptr || decision->request_id != decided + 1) break;
      ++decided;
      continue;
    }
    if (result.status == net::DecodeStatus::Malformed) break;
    const long n = silent.recv_some(chunk.data(), chunk.size());
    if (n <= 0) break;
    frames.append(chunk.data(), static_cast<std::size_t>(n));
  }
  server.stop();  // unblocks the sender should the read have failed
  sender.join();
  EXPECT_TRUE(sent_all.load());
  EXPECT_EQ(decided, kSilentRequests);
}

TEST(NetService, DribbledRequestDoesNotDelayOthers) {
  net::ServiceConfig config;
  config.server_count = 20;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  net::Socket slow = greeted_peer(server.port());
  ASSERT_TRUE(slow.valid());
  const std::vector<std::uint8_t> frame = request_batch(1'000'000, 1);
  std::atomic<bool> started{false};
  std::thread dribbler([&] {
    for (const std::uint8_t byte : frame) {
      const bool sent = slow.send_all(&byte, 1);
      started = true;
      if (!sent) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  while (!started) std::this_thread::yield();

  // A whole batch is served while the slow peer's frame is incomplete.
  EXPECT_TRUE(finishes_within_deadline(
      server, [&server] { run_batched_client(server.port(), 1, 50); }));

  dribbler.join();
  net::FrameBuffer frames;
  const auto answer = read_messages(slow, frames, 1);
  ASSERT_EQ(answer.size(), 1U);
  const auto* decision = std::get_if<net::AdmissionDecisionMsg>(&answer[0]);
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->request_id, 1U);
  EXPECT_TRUE(decision->decision.admitted());
  EXPECT_EQ(server.stats().admission_requests, 51U);
  server.stop();
}

TEST(NetService, GarbageOnOneConnectionLeavesOthersServed) {
  net::ServiceConfig config;
  config.server_count = 20;
  net::Server server(config);
  ASSERT_TRUE(server.start());
  auto client = net::Client::connect(server.port());
  ASSERT_TRUE(client.has_value());
  for (std::uint64_t i = 1; i <= 20; ++i) {
    client->submit(request_at(i, 0.01 * double(i)));
  }
  ASSERT_TRUE(client->flush());

  net::Socket garbage = greeted_peer(server.port());
  ASSERT_TRUE(garbage.valid());
  const std::uint8_t bytes[] = {0xDF, 0x7F, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(garbage.send_all(bytes, sizeof(bytes)));
  net::FrameBuffer frames;
  const auto answer = read_messages(garbage, frames, 2);
  ASSERT_EQ(answer.size(), 1U);  // the Error, then the close
  ASSERT_TRUE(std::holds_alternative<net::ErrorMsg>(answer[0]));
  EXPECT_EQ(std::get<net::ErrorMsg>(answer[0]).code, 400U);

  for (std::uint64_t i = 21; i <= 40; ++i) {
    client->submit(request_at(i, 0.01 * double(i)));
  }
  ASSERT_TRUE(client->flush());
  EXPECT_EQ(client->decisions().size(), 40U);
  const auto stats = server.stats();
  EXPECT_EQ(stats.malformed_frames, 1U);
  EXPECT_EQ(stats.admission_requests, 40U);
  server.stop();
}

TEST(NetService, RandomChunkingGivesTheSameDecisions) {
  constexpr std::uint64_t kRequests = 40;
  const std::vector<std::uint8_t> batch = request_batch(1, kRequests);
  net::ServiceConfig config;
  config.server_count = 6;  // fills up: admits and rejections both occur

  // Sends the batch in chunks of 1..max_chunk bytes (one write when
  // max_chunk covers it) to a fresh server and returns the decision
  // frames, re-encoded for a byte comparison.
  const auto decisions_for = [&](std::size_t max_chunk) {
    std::vector<std::vector<std::uint8_t>> out;
    net::Server server(config);
    EXPECT_TRUE(server.start());
    net::Socket peer = greeted_peer(server.port());
    EXPECT_TRUE(peer.valid());
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::size_t> size(1, max_chunk);
    for (std::size_t sent = 0; sent < batch.size();) {
      const std::size_t n = std::min(size(rng), batch.size() - sent);
      EXPECT_TRUE(peer.send_all(batch.data() + sent, n));
      sent += n;
      if (max_chunk < batch.size()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    net::FrameBuffer frames;
    for (auto& message : read_messages(peer, frames, kRequests)) {
      EXPECT_TRUE(std::holds_alternative<net::AdmissionDecisionMsg>(message));
      out.push_back(net::encode_frame(message));
    }
    server.stop();
    return out;
  };

  const auto whole = decisions_for(batch.size());
  const auto chunked = decisions_for(64);
  ASSERT_EQ(whole.size(), kRequests);
  EXPECT_EQ(chunked, whole);
}
