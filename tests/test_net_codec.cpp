// Property/fuzz tests for the binary transport codec (src/net/codec.hpp):
// random valid messages round-trip bit-exact; truncated, oversized-length,
// wrong-version and bit-flipped frames are rejected without crashing (CI
// runs this suite under ASan/UBSan).
#include "net/codec.hpp"

#include <gtest/gtest.h>

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
  switch (rng.uniform_int(0, 9)) {
    case 0: {
      net::Hello m;
      m.server = "deflated/test";
      m.admission_policy = "price";
      const auto n = rng.uniform_int(0, 5);
      for (std::int64_t i = 0; i < n; ++i) {
        m.policies.push_back("policy-" + std::to_string(i));
      }
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
      net::PlaceRequest m;
      m.vm_id = rng.next_u64();
      m.demand = random_vector(rng);
      m.priority = rng.uniform(0.0, 1.0);
      m.deflatable = rng.bernoulli(0.5);
      return m;
    }
    case 5: {
      net::PlaceResponse m;
      m.vm_id = rng.next_u64();
      m.accepted = rng.bernoulli(0.5);
      m.host_id = rng.next_u64();
      m.launch_fraction = rng.uniform(0.0, 1.0);
      return m;
    }
    case 6: {
      net::DeflateCommand m;
      m.vm_id = rng.next_u64();
      m.target = random_vector(rng);
      return m;
    }
    case 7: {
      net::DeflationNotice m;
      m.vm_id = rng.next_u64();
      m.old_alloc = random_vector(rng);
      m.new_alloc = random_vector(rng);
      return m;
    }
    case 8: {
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
  m.policies = {"admit-all", "price"};
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
  // The legacy admission list is independent of the surface table.
  EXPECT_EQ(out.policies, m.policies);
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
