// Capture/replay determinism (src/net/capture.hpp): a logged admission
// session — deferrals, in-stream resolutions, multiple connections —
// replayed into a fresh controller stack reproduces the identical
// decision sequence, byte for byte; tampering is detected.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "net/capture.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace net = deflate::net;
namespace cluster = deflate::cluster;
namespace hv = deflate::hv;
namespace sim = deflate::sim;

namespace {

/// Temp capture path in the ctest working directory, removed on scope
/// exit.
class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

cluster::AdmissionRequest request_at(std::uint64_t id, double hours,
                                     double priority, bool deflatable) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = 2;
  spec.memory_mib = 4096.0;
  spec.priority = priority;
  spec.deflatable = deflatable;
  return cluster::AdmissionRequest::from_spec(spec,
                                              sim::SimTime::from_hours(hours));
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A tight price-policy service on a real (noisy) OU trace with a
/// mid-range ceiling: decisions flip between admit and defer as the
/// price wanders, which is exactly the churn replay must reproduce.
net::ServiceConfig churny_config(const std::string& capture_path) {
  net::ServiceConfig config;
  config.server_count = 8;
  config.shard_count = 2;
  config.admission_policy = "price";
  config.admission.default_ceiling = 0.24;
  config.admission.max_defer_hours = 2.0;
  config.price_trace_hours = 72.0;
  config.price_seed = 11;
  config.capture_path = capture_path;
  return config;
}

/// test_net_service's always-expensive config, captured: the feed quotes
/// a constant price above the 0.1 ceiling, so every deflatable request
/// defers until its deadline.
net::ServiceConfig always_expensive_config(const std::string& capture_path) {
  net::ServiceConfig config;
  config.server_count = 10;
  config.admission_policy = "price";
  config.admission.default_ceiling = 0.1;
  config.admission.max_defer_hours = 6.0;
  config.price_trace_hours = 48.0;
  config.spot.mean_price = 0.5;
  config.spot.volatility = 0.0;
  config.spot.shock_rate_per_hour = 0.0;
  config.spot.floor_price = 0.2;
  config.capture_path = capture_path;
  return config;
}

}  // namespace

TEST(NetCapture, HeaderRoundTripsConfigExactly) {
  net::ServiceConfig config;
  config.server_count = 123;
  config.shard_count = 7;
  config.shard_policy = cluster::ShardSelectionPolicy::LeastLoaded;
  config.routing_seed = 987654321;
  config.admission_policy = "bid-opt";
  config.admission.class_ceilings = {1.0, 0.1 + 0.2, 0.333333333333333,
                                     0.25, 1e-17};
  config.admission.default_ceiling = 0.123456789012345;
  config.admission.max_defer_hours = 7.25;
  config.on_demand_price = 1.5;
  config.price_trace_hours = 100.5;
  config.price_seed = 424242;
  config.spot.mean_price = 0.275;
  config.spot.volatility = 0.0625;
  config.spot.step = sim::SimTime::from_minutes(7);
  config.shard_policy_name = "least-loaded";
  config.placement_policy = "best-fit";

  const auto frame = net::encode_frame(net::CaptureHeader{config});
  const auto result = net::decode_frame(frame.data(), frame.size());
  ASSERT_EQ(result.status, net::DecodeStatus::Ok) << result.error;
  const net::ServiceConfig& decoded =
      std::get<net::CaptureHeader>(result.message).config;
  EXPECT_EQ(decoded.server_count, config.server_count);
  EXPECT_EQ(decoded.shard_count, config.shard_count);
  // The shard selection travels as the one name it resolves to.
  EXPECT_EQ(decoded.shard_policy_name, config.shard_policy_name);
  EXPECT_EQ(net::shard_policy_of(decoded), net::shard_policy_of(config));
  EXPECT_EQ(decoded.placement_policy, config.placement_policy);
  EXPECT_EQ(decoded.routing_seed, config.routing_seed);
  EXPECT_EQ(decoded.admission_policy, config.admission_policy);
  ASSERT_EQ(decoded.admission.class_ceilings.size(),
            config.admission.class_ceilings.size());
  for (std::size_t i = 0; i < config.admission.class_ceilings.size(); ++i) {
    // Bit-exact, not approximately: doubles travel as IEEE-754 bits.
    EXPECT_EQ(decoded.admission.class_ceilings[i],
              config.admission.class_ceilings[i]);
  }
  EXPECT_EQ(decoded.admission.default_ceiling,
            config.admission.default_ceiling);
  EXPECT_EQ(decoded.admission.max_defer_hours,
            config.admission.max_defer_hours);
  EXPECT_EQ(decoded.on_demand_price, config.on_demand_price);
  EXPECT_EQ(decoded.price_trace_hours, config.price_trace_hours);
  EXPECT_EQ(decoded.price_seed, config.price_seed);
  EXPECT_EQ(decoded.spot.mean_price, config.spot.mean_price);
  EXPECT_EQ(decoded.spot.volatility, config.spot.volatility);
  EXPECT_EQ(decoded.spot.step, config.spot.step);
}

TEST(NetCapture, HeaderRejectsGarbageAndForeignVersions) {
  TempFile file("test_net_capture_bad_header.bin");
  const auto rejection = [&file](const std::vector<std::uint8_t>& bytes,
                                 const char* label) {
    write_file(file.path(), bytes);
    EXPECT_FALSE(net::CaptureReader(file.path()).error().empty()) << label;
    const auto report = net::replay_capture(file.path());
    EXPECT_FALSE(report.ok()) << label;
    EXPECT_FALSE(report.error.empty()) << label;
    return report.error;
  };
  (void)rejection({}, "empty file");
  // A valid frame of the wrong type where the header belongs.
  net::AdmissionRequestMsg request;
  request.request = request_at(1, 0.0, 0.5, true);
  (void)rejection(net::encode_frame(request), "request frame first");
  // A header frame stamped by a codec-v3 peer.
  auto header = net::encode_frame(net::CaptureHeader{});
  header[1] = 3;
  EXPECT_NE(rejection(header, "codec v3 header").find("version"),
            std::string::npos);
}

TEST(NetCapture, UnregisteredPolicyInHeaderIsReportedNotThrown) {
  // ServiceCore throws on a policy name no registry knows; replay must
  // report that as a load failure, like any other bad header.
  TempFile file("test_net_capture_unknown_policy.bin");
  std::vector<net::ServiceConfig> configs(3);
  configs[0].admission_policy = "no-such-policy";
  configs[1].shard_count = 2;  // shard selection only runs when sharded
  configs[1].shard_policy_name = "no-such-policy";
  configs[2].placement_policy = "no-such-policy";
  for (const net::ServiceConfig& config : configs) {
    write_file(file.path(), net::encode_frame(net::CaptureHeader{config}));
    net::ReplayReport report;
    EXPECT_NO_THROW(report = net::replay_capture(file.path()));
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.error.find("no-such-policy"), std::string::npos)
        << report.error;
  }
}

TEST(NetCapture, ZeroServerHeaderIsReportedNotCrashed) {
  // The codec accepts servers = 0; the fleet must refuse it before any
  // placement could index a server that does not exist.
  TempFile file("test_net_capture_zero_servers.bin");
  for (const std::size_t shards : {1U, 4U}) {
    net::ServiceConfig config;
    config.server_count = 0;
    config.shard_count = shards;
    std::vector<std::uint8_t> bytes =
        net::encode_frame(net::CaptureHeader{config});
    // One captured request, so a replay that got past the header would
    // have to place it.
    const std::uint8_t conn_id[4] = {1, 0, 0, 0};
    bytes.insert(bytes.end(), conn_id, conn_id + 4);
    net::AdmissionRequestMsg request;
    request.request_id = 1;
    request.request = request_at(1, 0.5, 1.0, false);
    const auto frame = net::encode_frame(net::Message{request});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    write_file(file.path(), bytes);

    net::ReplayReport report;
    EXPECT_NO_THROW(report = net::replay_capture(file.path()));
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.error.find("header:"), std::string::npos) << report.error;
  }
}

TEST(NetCapture, ReplayReproducesDeferralHeavySession) {
  TempFile capture("test_net_capture_session.bin");
  {
    net::Server server(churny_config(capture.path()));
    ASSERT_TRUE(server.start());
    auto client = net::Client::connect(server.port());
    ASSERT_TRUE(client.has_value());

    // 120 requests over 48 hours, mixed classes; flushing every 8 keeps
    // the clock advancing so deferrals drain (and re-defer) mid-session.
    std::uint64_t id = 1;
    for (int wave = 0; wave < 15; ++wave) {
      for (int i = 0; i < 8; ++i, ++id) {
        const double hours = 48.0 * double(id) / 120.0;
        const bool deflatable = (id % 4) != 0;
        const double priority = deflatable ? 0.1 + 0.2 * double(id % 4) : 1.0;
        client->submit(request_at(id, hours, priority, deflatable));
      }
      ASSERT_TRUE(client->flush());
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.admission_requests, 120U);
    // The session must actually exercise the deferral machinery.
    EXPECT_GT(stats.decisions, stats.admission_requests);
    server.stop();
  }

  const auto report = net::replay_capture(capture.path());
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.requests, 120U);
  EXPECT_GT(report.decisions, report.requests);
  EXPECT_EQ(report.mismatches, 0U)
      << (report.details.empty() ? "" : report.details.front());
  EXPECT_TRUE(report.ok());
}

TEST(NetCapture, ReplayCoversMultipleConnections) {
  TempFile capture("test_net_capture_multi.bin");
  {
    auto config = churny_config(capture.path());
    net::Server server(config);
    ASSERT_TRUE(server.start());
    std::vector<std::thread> threads;
    for (int c = 0; c < 3; ++c) {
      threads.emplace_back([&server, c] {
        auto client = net::Client::connect(server.port());
        ASSERT_TRUE(client.has_value());
        for (std::uint64_t i = 0; i < 20; ++i) {
          client->submit(request_at(1000 * (c + 1) + i, 1.5 * double(i),
                                    0.3, true));
          if (i % 5 == 4) {
            ASSERT_TRUE(client->flush());
          }
        }
        ASSERT_TRUE(client->flush());
      });
    }
    for (auto& thread : threads) thread.join();
    server.stop();
  }

  const auto report = net::replay_capture(capture.path());
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.requests, 60U);
  EXPECT_EQ(report.mismatches, 0U)
      << (report.details.empty() ? "" : report.details.front());
}

TEST(NetCapture, ReplayMatchesRepeatedVmIdDeferrals) {
  TempFile capture("test_net_capture_repeated_id.bin");
  {
    net::Server server(always_expensive_config(capture.path()));
    ASSERT_TRUE(server.start());
    auto client = net::Client::connect(server.port());
    ASSERT_TRUE(client.has_value());
    // Request ids 1 and 2 defer the same vm id; the third request lands
    // past both deadlines, so both resolutions drain ahead of it.
    client->submit(request_at(5, 0.0, 0.3, true));
    client->submit(request_at(5, 0.5, 0.3, true));
    ASSERT_TRUE(client->flush());
    client->submit(request_at(6, 7.0, 1.0, false));
    ASSERT_TRUE(client->flush());
    EXPECT_EQ(client->resolved_deferrals().size(), 2U);
    server.stop();
  }

  const auto report = net::replay_capture(capture.path());
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.requests, 3U);
  EXPECT_EQ(report.decisions, 5U);
  EXPECT_EQ(report.mismatches, 0U)
      << (report.details.empty() ? "" : report.details.front());
  EXPECT_TRUE(report.ok());
}

TEST(NetCapture, TelemetrySubscriptionIsNotCaptured) {
  TempFile capture("test_net_capture_telemetry.bin");
  constexpr std::uint32_t kEvery = 8;
  constexpr std::uint64_t kRequests = 50;  // not a multiple of kEvery, so
                                           // the last report precedes the
                                           // last decision
  {
    net::Server server(churny_config(capture.path()));
    ASSERT_TRUE(server.start());
    auto client = net::Client::connect(server.port());
    ASSERT_TRUE(client.has_value());
    ASSERT_TRUE(client->request_telemetry(kEvery));
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
      client->submit(request_at(id, 0.5 * double(id), 0.3, id % 3 != 0));
    }
    ASSERT_TRUE(client->flush());

    EXPECT_EQ(client->telemetry_reports(), kRequests / kEvery);
    ASSERT_TRUE(client->last_telemetry().has_value());
    const net::UtilizationReport& report = *client->last_telemetry();
    EXPECT_EQ(report.host_id, net::kFleetTelemetryHostId);
    EXPECT_GT(report.committed.cpu(), 0.0);
    EXPECT_GT(report.overcommit_ratio, 0.0);
    EXPECT_EQ(server.stats().telemetry_reports, kRequests / kEvery);
    server.stop();
  }

  const auto report = net::replay_capture(capture.path());
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.requests, kRequests);
  EXPECT_EQ(report.mismatches, 0U)
      << (report.details.empty() ? "" : report.details.front());
  EXPECT_TRUE(report.ok());
}

TEST(NetCapture, TamperedLogFailsReplay) {
  TempFile capture("test_net_capture_tamper.bin");
  {
    net::Server server(churny_config(capture.path()));
    ASSERT_TRUE(server.start());
    auto client = net::Client::connect(server.port());
    ASSERT_TRUE(client.has_value());
    for (std::uint64_t i = 1; i <= 10; ++i) {
      client->submit(request_at(i, double(i), 0.9, true));
    }
    ASSERT_TRUE(client->flush());
    server.stop();
  }
  ASSERT_TRUE(net::replay_capture(capture.path()).ok());

  // Flip the last byte — inside the final decision frame's payload. The
  // replay must either fail to parse the record or flag a divergence;
  // it must never report a tampered log as identical.
  std::fstream file(capture.path(),
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekg(-1, std::ios::end);
  char last = 0;
  file.get(last);
  file.seekp(-1, std::ios::end);
  file.put(static_cast<char>(last ^ 0x01));
  file.close();

  EXPECT_FALSE(net::replay_capture(capture.path()).ok());
}

TEST(NetCapture, MissingFileReportsError) {
  const auto report = net::replay_capture("no/such/capture.bin");
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.error.empty());
}
