// Property/fuzz tests for the binary transport codec (src/net/codec.hpp):
// random valid messages round-trip bit-exact; truncated, oversized-length,
// wrong-version and bit-flipped frames are rejected without crashing (CI
// runs this suite under ASan/UBSan). Golden frames pin every message
// layout to committed bytes, and a table pins each decoder input check.
#include "net/codec.hpp"
#include "net/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "util/rng.hpp"

namespace net = deflate::net;
namespace cluster = deflate::cluster;
namespace hv = deflate::hv;
namespace res = deflate::res;
namespace sim = deflate::sim;
using deflate::util::Rng;

namespace {

hv::VmSpec random_spec(Rng& rng) {
  hv::VmSpec spec;
  spec.id = rng.next_u64();
  spec.name = "vm-" + std::to_string(rng.uniform_int(0, 1 << 20));
  spec.vcpus = static_cast<int>(rng.uniform_int(1, 48));
  spec.memory_mib = rng.uniform(256.0, 128.0 * 1024.0);
  spec.disk_bw_mbps = rng.uniform(0.0, 4000.0);
  spec.net_bw_mbps = rng.uniform(0.0, 40000.0);
  spec.priority = rng.uniform(0.05, 1.0);
  spec.deflatable = rng.bernoulli(0.5);
  spec.min_fraction = rng.uniform(0.0, 0.5);
  spec.workload = static_cast<hv::WorkloadClass>(rng.uniform_int(0, 2));
  return spec;
}

res::ResourceVector random_vector(Rng& rng) {
  return {rng.uniform(0.0, 64.0), rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e4),
          rng.uniform(0.0, 1e5)};
}

net::Message random_message(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: {
      net::Hello m;
      m.server = "deflated/test";
      m.admission_policy = "price";
      // v2: per-surface registry advertisements (0 surfaces = a v2 frame
      // from a peer with no registries, still valid).
      const auto surface_count = rng.uniform_int(0, 6);
      for (std::int64_t s = 0; s < surface_count; ++s) {
        net::PolicySurface surface;
        surface.surface = "surface-" + std::to_string(s);
        const auto policy_count = rng.uniform_int(0, 7);
        for (std::int64_t p = 0; p < policy_count; ++p) {
          surface.policies.push_back("s" + std::to_string(s) + "-policy-" +
                                     std::to_string(p));
        }
        m.surfaces.push_back(std::move(surface));
      }
      return m;
    }
    case 1: {
      net::ErrorMsg m;
      m.code = static_cast<std::uint32_t>(rng.next_u64());
      m.message = "weird &=% message \x01\x02";
      return m;
    }
    case 2: {
      net::AdmissionRequestMsg m;
      m.request_id = rng.next_u64();
      m.request.spec = random_spec(rng);
      m.request.priority_class = static_cast<std::size_t>(
          rng.uniform_int(0, cluster::kAdmissionClasses - 1));
      m.request.arrival = sim::SimTime::from_micros(
          static_cast<std::int64_t>(rng.next_u64() >> 20));
      if (rng.bernoulli(0.5)) {
        m.request.deadline =
            m.request.arrival + sim::SimTime::from_hours(rng.uniform(0.1, 48));
      }
      return m;
    }
    case 3: {
      net::AdmissionDecisionMsg m;
      m.request_id = rng.next_u64();
      m.decision.status = static_cast<cluster::AdmissionDecision::Status>(
          rng.uniform_int(0, 3));
      m.decision.reason = static_cast<cluster::AdmissionDecision::Reason>(
          rng.uniform_int(0, 4));
      m.decision.quoted_price = rng.uniform(0.01, 2.0);
      m.decision.placement.status =
          static_cast<cluster::PlacementResult::Status>(rng.uniform_int(0, 2));
      m.decision.placement.host_id = rng.next_u64();
      m.decision.placement.needed_reclamation = rng.bernoulli(0.5);
      m.decision.placement.launch_fraction = rng.uniform(0.05, 1.0);
      m.decision.retry_at = sim::SimTime::from_micros(
          static_cast<std::int64_t>(rng.next_u64() >> 20));
      return m;
    }
    case 4: {
      net::UtilizationReport m;
      m.host_id = rng.next_u64();
      m.available = random_vector(rng);
      m.committed = random_vector(rng);
      m.overcommit_ratio = rng.uniform(0.0, 3.0);
      return m;
    }
    default: {
      net::CaptureHeader m;
      net::ServiceConfig& c = m.config;
      c.server_count = static_cast<std::size_t>(rng.uniform_int(1, 1 << 16));
      c.shard_count = static_cast<std::size_t>(rng.uniform_int(1, 64));
      c.shard_policy =
          static_cast<cluster::ShardSelectionPolicy>(rng.uniform_int(0, 2));
      c.shard_policy_name = rng.bernoulli(0.5) ? "" : "least-loaded";
      c.placement_policy = rng.bernoulli(0.5) ? "" : "best-fit";
      c.routing_seed = rng.next_u64();
      c.admission_policy = "price";
      const auto ceilings = rng.uniform_int(0, 5);
      for (std::int64_t i = 0; i < ceilings; ++i) {
        c.admission.class_ceilings.push_back(rng.uniform(0.0, 1.0));
      }
      c.admission.default_ceiling = rng.uniform(0.0, 1.0);
      c.admission.max_defer_hours = rng.uniform(0.0, 24.0);
      c.on_demand_price = rng.uniform(0.5, 2.0);
      c.price_trace_hours = rng.uniform(0.0, 200.0);
      c.price_seed = rng.next_u64();
      c.spot.mean_price = rng.uniform(0.05, 0.5);
      c.spot.volatility = rng.uniform(0.0, 0.2);
      c.spot.step = sim::SimTime::from_micros(
          static_cast<std::int64_t>(rng.next_u64() >> 20));
      return m;
    }
  }
}

/// Bit-exact equality via re-encoding: two messages are identical iff
/// their frames are byte-identical (encoding is deterministic).
void expect_roundtrip_exact(const net::Message& message) {
  const auto frame = net::encode_frame(message);
  const auto decoded = net::decode_frame(frame.data(), frame.size());
  ASSERT_EQ(decoded.status, net::DecodeStatus::Ok) << decoded.error;
  EXPECT_EQ(decoded.consumed, frame.size());
  EXPECT_EQ(net::message_type(decoded.message), net::message_type(message));
  const auto reencoded = net::encode_frame(decoded.message);
  EXPECT_EQ(reencoded, frame);
}

}  // namespace

TEST(NetCodec, RandomMessagesRoundTripBitExact) {
  Rng rng(20260808);
  for (int i = 0; i < 500; ++i) {
    const net::Message message = random_message(rng);
    expect_roundtrip_exact(message);
  }
}

TEST(NetCodec, AdmissionRequestFieldsSurvive) {
  net::AdmissionRequestMsg m;
  m.request_id = 77;
  m.request.spec.id = 42;
  m.request.spec.name = "with &=% and \xFF bytes";
  m.request.spec.vcpus = 8;
  m.request.spec.memory_mib = 16384.5;
  m.request.spec.priority = 0.375;
  m.request.spec.deflatable = true;
  m.request.priority_class = 3;
  m.request.arrival = sim::SimTime::from_hours(12.25);
  m.request.deadline = sim::SimTime::from_hours(18.0);

  const auto frame = net::encode_frame(m);
  const auto decoded = net::decode_frame(frame.data(), frame.size());
  ASSERT_EQ(decoded.status, net::DecodeStatus::Ok);
  const auto& out = std::get<net::AdmissionRequestMsg>(decoded.message);
  EXPECT_EQ(out.request_id, 77U);
  EXPECT_EQ(out.request.spec.id, 42U);
  EXPECT_EQ(out.request.spec.name, m.request.spec.name);
  EXPECT_EQ(out.request.spec.vcpus, 8);
  EXPECT_DOUBLE_EQ(out.request.spec.memory_mib, 16384.5);
  EXPECT_DOUBLE_EQ(out.request.spec.priority, 0.375);
  EXPECT_TRUE(out.request.spec.deflatable);
  EXPECT_EQ(out.request.priority_class, 3U);
  EXPECT_EQ(out.request.arrival, sim::SimTime::from_hours(12.25));
  ASSERT_TRUE(out.request.deadline.has_value());
  EXPECT_EQ(*out.request.deadline, sim::SimTime::from_hours(18.0));
}

TEST(NetCodec, HelloSurfacesSurvive) {
  net::Hello m;
  m.server = "deflated/test";
  m.admission_policy = "price";
  net::PolicySurface admission;
  admission.surface = "admission";
  admission.policies = {"admit-all", "bid-opt", "price"};
  net::PolicySurface empty_surface;
  empty_surface.surface = "placement";  // advertised with no policies
  m.surfaces = {admission, empty_surface};

  const auto frame = net::encode_frame(m);
  const auto decoded = net::decode_frame(frame.data(), frame.size());
  ASSERT_EQ(decoded.status, net::DecodeStatus::Ok) << decoded.error;
  const auto& out = std::get<net::Hello>(decoded.message);
  ASSERT_EQ(out.surfaces.size(), 2U);
  EXPECT_EQ(out.surfaces[0].surface, "admission");
  EXPECT_EQ(out.surfaces[0].policies,
            (std::vector<std::string>{"admit-all", "bid-opt", "price"}));
  EXPECT_EQ(out.surfaces[1].surface, "placement");
  EXPECT_TRUE(out.surfaces[1].policies.empty());
}

TEST(NetCodec, CaptureHeaderCarriesOneShardPolicyName) {
  // The daemon writes its header from ServiceCore::config(), which holds
  // the shard policy resolved to one name; that name is what travels.
  const auto name_after_roundtrip = [](const net::ServiceConfig& config) {
    const net::ServiceCore core(config);
    const auto frame = net::encode_frame(net::CaptureHeader{core.config()});
    const auto decoded = net::decode_frame(frame.data(), frame.size());
    EXPECT_EQ(decoded.status, net::DecodeStatus::Ok) << decoded.error;
    return std::get<net::CaptureHeader>(decoded.message)
        .config.shard_policy_name;
  };
  // The enum alias travels as the primary name it resolves to...
  net::ServiceConfig config;
  config.shard_policy = cluster::ShardSelectionPolicy::LeastLoaded;
  EXPECT_EQ(name_after_roundtrip(config), "least-loaded");
  config.shard_policy = cluster::ShardSelectionPolicy::PowerOfTwoChoices;
  EXPECT_EQ(name_after_roundtrip(config), "p2c");
  // ...and a set name outranks it.
  config.shard_policy_name = "round-robin";
  EXPECT_EQ(name_after_roundtrip(config), "round-robin");
}

TEST(NetCodec, HelloSurfaceCountOverCapRejected) {
  net::Hello m;
  m.server = "deflated/test";
  for (std::size_t i = 0; i <= net::kMaxHelloSurfaces; ++i) {
    net::PolicySurface surface;
    surface.surface = "surface-" + std::to_string(i);
    m.surfaces.push_back(std::move(surface));
  }
  const auto frame = net::encode_frame(net::Message{m});
  const auto result = net::decode_frame(frame.data(), frame.size());
  EXPECT_EQ(result.status, net::DecodeStatus::Malformed);

  m.surfaces.pop_back();  // exactly at the cap: fine
  expect_roundtrip_exact(net::Message{m});
}

TEST(NetCodec, EveryTruncationIsNeedMoreNeverCrash) {
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const auto frame = net::encode_frame(random_message(rng));
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const auto result = net::decode_frame(frame.data(), cut);
      // A prefix of a valid frame is always incomplete, never malformed:
      // the header survives truncation-detection because the length field
      // tells the decoder how much is still missing.
      EXPECT_EQ(result.status, net::DecodeStatus::NeedMore)
          << "cut at " << cut << " of " << frame.size();
      EXPECT_EQ(result.consumed, 0U);
    }
  }
}

TEST(NetCodec, WrongVersionRejected) {
  auto frame = net::encode_frame(net::Message{net::Shutdown{}});
  frame[1] = net::kCodecVersion + 1;
  const auto result = net::decode_frame(frame.data(), frame.size());
  EXPECT_EQ(result.status, net::DecodeStatus::Malformed);
  EXPECT_NE(result.error.find("version"), std::string::npos);
}

TEST(NetCodec, BadMagicRejected) {
  auto frame = net::encode_frame(net::Message{net::Shutdown{}});
  frame[0] = 0x00;
  EXPECT_EQ(net::decode_frame(frame.data(), frame.size()).status,
            net::DecodeStatus::Malformed);
}

TEST(NetCodec, UnknownTypeRejected) {
  auto frame = net::encode_frame(net::Message{net::Shutdown{}});
  frame[2] = 0xEE;
  EXPECT_EQ(net::decode_frame(frame.data(), frame.size()).status,
            net::DecodeStatus::Malformed);
}

TEST(NetCodec, OversizedLengthRejectedWithoutBuffering) {
  auto frame = net::encode_frame(net::Message{net::Shutdown{}});
  const std::uint32_t huge = net::kMaxPayload + 1;
  std::memcpy(frame.data() + 3, &huge, sizeof(huge));
  const auto result = net::decode_frame(frame.data(), frame.size());
  EXPECT_EQ(result.status, net::DecodeStatus::Malformed);
  EXPECT_NE(result.error.find("oversized"), std::string::npos);
}

TEST(NetCodec, TrailingPayloadBytesRejected) {
  // A frame whose payload is longer than its message: strict framing must
  // reject instead of silently ignoring the tail.
  auto frame = net::encode_frame(net::Message{net::Shutdown{}});
  frame.push_back(0xAB);
  const std::uint32_t len = 1;
  std::memcpy(frame.data() + 3, &len, sizeof(len));
  EXPECT_EQ(net::decode_frame(frame.data(), frame.size()).status,
            net::DecodeStatus::Malformed);
}

TEST(NetCodec, BitFlipsNeverCrash) {
  // Flip every byte of a few valid frames through every offset; decode
  // must return Ok / NeedMore / Malformed without reading out of bounds
  // (ASan job enforces the "without crashing" half).
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const auto frame = net::encode_frame(random_message(rng));
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      auto corrupted = frame;
      corrupted[pos] ^= 0xFF;
      (void)net::decode_frame(corrupted.data(), corrupted.size());
    }
  }
  SUCCEED();
}

TEST(NetCodec, RandomGarbageNeverCrashes) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 256)));
    for (auto& byte : junk) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    (void)net::decode_frame(junk.data(), junk.size());
  }
  SUCCEED();
}

TEST(NetCodec, FrameBufferReassemblesArbitraryChunking) {
  Rng rng(31);
  std::vector<net::Message> messages;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 40; ++i) {
    messages.push_back(random_message(rng));
    const auto frame = net::encode_frame(messages.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  net::FrameBuffer buffer;
  std::size_t fed = 0, decoded = 0;
  while (decoded < messages.size()) {
    if (fed < stream.size()) {
      const auto chunk = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(1, 37)),
          stream.size() - fed);
      buffer.append(stream.data() + fed, chunk);
      fed += chunk;
    }
    for (;;) {
      const auto result = buffer.next();
      if (result.status != net::DecodeStatus::Ok) {
        ASSERT_EQ(result.status, net::DecodeStatus::NeedMore);
        break;
      }
      ASSERT_LT(decoded, messages.size());
      EXPECT_EQ(net::encode_frame(result.message),
                net::encode_frame(messages[decoded]));
      ++decoded;
    }
  }
  EXPECT_EQ(buffer.buffered(), 0U);
}

TEST(NetCodec, FrameBufferPoisonsOnMalformedFrame) {
  net::FrameBuffer buffer;
  auto bad = net::encode_frame(net::Message{net::Shutdown{}});
  bad[0] = 0x13;
  buffer.append(bad.data(), bad.size());
  EXPECT_EQ(buffer.next().status, net::DecodeStatus::Malformed);
  EXPECT_TRUE(buffer.poisoned());

  // Even appending a perfectly valid frame cannot resynchronize framing.
  const auto good = net::encode_frame(net::Message{net::Bye{}});
  buffer.append(good.data(), good.size());
  EXPECT_EQ(buffer.next().status, net::DecodeStatus::Malformed);
}

TEST(NetCodec, EnumsOutOfRangeRejected) {
  net::AdmissionDecisionMsg m;
  m.request_id = 1;
  auto frame = net::encode_frame(net::Message{m});
  // Payload layout: request_id u64, then status u8 at offset 8.
  frame[net::kHeaderSize + 8] = 200;
  EXPECT_EQ(net::decode_frame(frame.data(), frame.size()).status,
            net::DecodeStatus::Malformed);
}

namespace {

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t byte : bytes) {
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xF]);
  }
  return hex;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

hv::VmSpec golden_spec() {
  hv::VmSpec spec;
  spec.id = 42;
  spec.name = "vm";
  spec.vcpus = 4;
  spec.memory_mib = 2048.5;
  spec.disk_bw_mbps = 100.25;
  spec.net_bw_mbps = 1000.75;
  spec.priority = 0.375;
  spec.deflatable = true;
  spec.min_fraction = 0.25;
  spec.workload = hv::WorkloadClass::DelayInsensitive;
  return spec;
}

/// One fixed instance per message type (two AdmissionRequests: deadline
/// present and absent), each with the frame bytes committed for it.
std::vector<std::pair<net::Message, std::string>> golden_frames() {
  net::Hello hello;
  hello.server = "d/1";
  hello.admission_policy = "price";
  hello.surfaces = {{"admission", {"price", "bid-opt"}}, {"placement", {}}};
  hello.telemetry_every = 7;

  net::AdmissionRequestMsg with_deadline;
  with_deadline.request_id = 0x0102030405060708ULL;
  with_deadline.request.spec = golden_spec();
  with_deadline.request.priority_class = 3;
  with_deadline.request.arrival = sim::SimTime::from_micros(-1500);
  with_deadline.request.deadline = sim::SimTime::from_hours(2.0);

  net::AdmissionRequestMsg without_deadline;
  without_deadline.request_id = 5;
  without_deadline.request.spec.id = 6;
  without_deadline.request.arrival = sim::SimTime::from_seconds(30.0);

  net::AdmissionDecisionMsg decision;
  decision.request_id = 9;
  decision.decision.status = cluster::AdmissionDecision::Status::PlacedDeflated;
  decision.decision.reason = cluster::AdmissionDecision::Reason::Admitted;
  decision.decision.quoted_price = 0.125;
  decision.decision.placement.status =
      cluster::PlacementResult::Status::PlacedDeflated;
  decision.decision.placement.host_id = 17;
  decision.decision.placement.needed_reclamation = true;
  decision.decision.placement.launch_fraction = 0.5;
  decision.decision.retry_at = sim::SimTime::from_micros(-1);

  net::CaptureHeader header;
  net::ServiceConfig& c = header.config;
  c.server_count = 40;
  c.shard_count = 4;
  c.shard_policy = cluster::ShardSelectionPolicy::LeastLoaded;
  c.shard_policy_name = "p2c";
  c.placement_policy = "best-fit";
  c.routing_seed = 43;
  c.admission_policy = "price";
  c.admission.class_ceilings = {0.0, 0.3, 0.45};
  c.price_trace_hours = 24.0;
  c.price_seed = 7;

  return {
      {hello,
       "df05014f0000000503000000642f310500000070726963650200000009000000"
       "61646d697373696f6e02000000050000007072696365070000006269642d6f70"
       "7409000000706c6163656d656e740000000007000000"},
      {net::ErrorMsg{422, "bad"}, "df05020b000000a601000003000000626164"},
      {net::Shutdown{}, "df050300000000"},
      {net::Bye{}, "df050400000000"},
      {with_deadline,
       "df05055900000008070605040302012a0000000000000002000000766d040000"
       "00000000000001a04000000000001059400000000000468f40000000000000d8"
       "3f01000000000000d03f010300000024faffffffffffff01004827ad01000000"},
      {without_deadline,
       "df05055700000005000000000000000600000000000000000000000100000000"
       "0000000000904000000000000059400000000000408f40000000000000f03f00"
       "0000000000000000020000000080c3c90100000000000000000000000000"},
      {decision,
       "df05062c00000009000000000000000100000000000000c03f01110000000000"
       "000001000000000000e03fffffffffffffffff"},
      {net::UtilizationReport{5,
                              {30.0, 61440.0, 900.0, 9000.0},
                              {34.0, 69632.0, 1100.0, 11000.0},
                              1.5},
       "df05075000000005000000000000000000000000003e40000000000000ee4000"
       "00000000208c40000000000094c1400000000000004140000000000000f14000"
       "0000000030914000000000007cc540000000000000f83f"},
      {header,
       "df0508b800000028000000000000000400000000000000030000007032630800"
       "0000626573742d6669742b000000000000000500000070726963650300000000"
       "00000000000000333333333333d33fcdccccccccccdc3f666666666666d63f00"
       "00000000001840000000000000f03f0000000000003840070000000000000000"
       "0000000000d03f333333333333e33f7b14ae47e17aa43f555555555555a53f00"
       "00000000001040000000000000f83f9a9999999999a93f00a3e11100000000"},
  };
}

}  // namespace

// The wire-compatibility check: every message type's layout and type byte
// pinned to committed bytes. Round-trip tests cannot catch a field that
// moved on both sides at once; this can. The expected bytes change only
// together with a kCodecVersion bump.
TEST(NetCodec, EveryMessageTypeMatchesCommittedBytes) {
  std::vector<bool> covered(
      static_cast<std::size_t>(net::MsgType::CaptureHeader) + 1, false);
  for (const auto& [message, hex] : golden_frames()) {
    const net::MsgType type = net::message_type(message);
    covered[static_cast<std::size_t>(type)] = true;
    EXPECT_EQ(to_hex(net::encode_frame(message)), hex)
        << net::msg_type_name(type);
    const std::vector<std::uint8_t> bytes = from_hex(hex);
    const auto decoded = net::decode_frame(bytes.data(), bytes.size());
    ASSERT_EQ(decoded.status, net::DecodeStatus::Ok)
        << net::msg_type_name(type) << ": " << decoded.error;
    EXPECT_EQ(decoded.consumed, bytes.size());
    EXPECT_EQ(net::encode_frame(decoded.message), bytes)
        << net::msg_type_name(type);
  }
  for (std::size_t t = 1; t < covered.size(); ++t) {
    EXPECT_TRUE(covered[t]) << "no golden frame for type " << t;
  }
}

namespace {

/// `base` and `variant` differ in exactly one single-byte field (a flag, an
/// enum, or the low byte of a small u32); returns `base`'s frame with that
/// byte set to `value`.
std::vector<std::uint8_t> with_field_byte(const net::Message& base,
                                          const net::Message& variant,
                                          std::uint8_t value) {
  std::vector<std::uint8_t> frame = net::encode_frame(base);
  const std::vector<std::uint8_t> other = net::encode_frame(variant);
  EXPECT_EQ(frame.size(), other.size());
  std::vector<std::size_t> differing;
  for (std::size_t i = 0; i < std::min(frame.size(), other.size()); ++i) {
    if (frame[i] != other[i]) differing.push_back(i);
  }
  EXPECT_EQ(differing.size(), 1U);
  if (differing.size() == 1) frame[differing.front()] = value;
  return frame;
}

template <typename M, typename Edit>
std::vector<std::uint8_t> patched(const M& base, Edit edit,
                                  std::uint8_t value) {
  M variant = base;
  edit(variant);
  return with_field_byte(base, variant, value);
}

/// Hello / CaptureHeader instances whose one list holds `n` entries.
net::Message hello_with_surface_policies(std::size_t n) {
  net::Hello m;
  m.surfaces.push_back({"admission", std::vector<std::string>(n, "p")});
  return m;
}
net::Message header_with_ceilings(std::size_t n) {
  net::CaptureHeader m;
  m.config.admission.class_ceilings.assign(n, 0.25);
  return m;
}

}  // namespace

// Every input check of the decoder, one frame each: a field patched to
// the first invalid value (flags to 2, enums to last+1, the priority class
// to kAdmissionClasses) or a list one entry over its cap. Without the
// check each frame would decode cleanly, so Malformed pins the check.
TEST(NetCodec, EveryFieldCheckRejectsFirstInvalidValue) {
  using Status = cluster::AdmissionDecision::Status;
  using Reason = cluster::AdmissionDecision::Reason;
  using PlacementStatus = cluster::PlacementResult::Status;
  constexpr std::size_t kListCap = net::kMaxListLength;

  net::AdmissionRequestMsg request;
  request.request.spec.workload = hv::WorkloadClass::DelayInsensitive;
  request.request.priority_class = cluster::kAdmissionClasses - 2;
  net::AdmissionDecisionMsg decision;
  decision.decision.status = Status::Deferred;
  decision.decision.reason = Reason::CapacityDeferred;
  decision.decision.placement.status = PlacementStatus::PlacedDeflated;
  net::CaptureHeader header;

  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases =
      {
          {"VmSpec.deflatable = 2",
           patched(request, [](auto& m) { m.request.spec.deflatable = true; },
                   2)},
          {"VmSpec.workload = last+1",
           patched(request,
                   [](auto& m) {
                     m.request.spec.workload = hv::WorkloadClass::Unknown;
                   },
                   3)},
          {"priority_class = kAdmissionClasses",
           patched(request,
                   [](auto& m) {
                     m.request.priority_class = cluster::kAdmissionClasses - 1;
                   },
                   static_cast<std::uint8_t>(cluster::kAdmissionClasses))},
          {"deadline flag = 2",
           patched(request,
                   [](auto& m) { m.request.deadline = sim::SimTime{}; }, 2)},
          {"decision status = last+1",
           patched(decision,
                   [](auto& m) { m.decision.status = Status::Rejected; }, 4)},
          {"decision reason = last+1",
           patched(decision,
                   [](auto& m) { m.decision.reason = Reason::DeadlineExpired; },
                   5)},
          {"placement status = last+1",
           patched(decision,
                   [](auto& m) {
                     m.decision.placement.status = PlacementStatus::Rejected;
                   },
                   3)},
          {"needed_reclamation = 2",
           patched(decision,
                   [](auto& m) {
                     m.decision.placement.needed_reclamation = true;
                   },
                   2)},
          {"surface policies = cap+1",
           net::encode_frame(hello_with_surface_policies(kListCap + 1))},
          {"capture ceilings = cap+1",
           net::encode_frame(header_with_ceilings(kListCap + 1))},
      };
  for (const auto& [label, frame] : cases) {
    const auto result = net::decode_frame(frame.data(), frame.size());
    EXPECT_EQ(result.status, net::DecodeStatus::Malformed) << label;
  }

  // Controls: the unpatched bases and lists exactly at the cap decode.
  for (const net::Message& valid :
       {net::Message{request}, net::Message{decision}, net::Message{header},
        hello_with_surface_policies(kListCap),
        header_with_ceilings(kListCap)}) {
    expect_roundtrip_exact(valid);
  }
}
