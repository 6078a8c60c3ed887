#include "net/codec.hpp"

#include <cstring>
#include <optional>

namespace deflate::net {

namespace {

// --- little-endian byte writer ---------------------------------------------

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back((v >> (8 * i)) & 0xFF);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back((v >> (8 * i)) & 0xFF);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void vec(const res::ResourceVector& v) {
    f64(v.cpu());
    f64(v.memory());
    f64(v.disk_bw());
    f64(v.net_bw());
  }
  void time(sim::SimTime t) { i64(t.micros()); }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

// --- bounds-checked little-endian reader ------------------------------------

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > size_) return false;
    v = data_[pos_++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > size_) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > size_) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool i64(std::int64_t& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len) || pos_ + len > size_) return false;
    s.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool vec(res::ResourceVector& v) {
    double cpu = 0, mem = 0, disk = 0, net = 0;
    if (!f64(cpu) || !f64(mem) || !f64(disk) || !f64(net)) return false;
    v = res::ResourceVector(cpu, mem, disk, net);
    return true;
  }
  bool time(sim::SimTime& t) {
    std::int64_t micros = 0;
    if (!i64(micros)) return false;
    t = sim::SimTime::from_micros(micros);
    return true;
  }
  /// Enum with validation: rejects values above `max` (a frame from a
  /// newer peer must not alias onto a random enumerator).
  template <typename E>
  bool enum8(E& e, std::uint8_t max) {
    std::uint8_t raw = 0;
    if (!u8(raw) || raw > max) return false;
    e = static_cast<E>(raw);
    return true;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- per-type payload encodings ---------------------------------------------

void put_spec(ByteWriter& w, const hv::VmSpec& spec) {
  w.u64(spec.id);
  w.str(spec.name);
  w.u32(static_cast<std::uint32_t>(spec.vcpus));
  w.f64(spec.memory_mib);
  w.f64(spec.disk_bw_mbps);
  w.f64(spec.net_bw_mbps);
  w.f64(spec.priority);
  w.u8(spec.deflatable ? 1 : 0);
  w.f64(spec.min_fraction);
  w.u8(static_cast<std::uint8_t>(spec.workload));
}

bool get_spec(ByteReader& r, hv::VmSpec& spec) {
  std::uint32_t vcpus = 0;
  std::uint8_t deflatable = 0;
  if (!r.u64(spec.id) || !r.str(spec.name) || !r.u32(vcpus) ||
      !r.f64(spec.memory_mib) || !r.f64(spec.disk_bw_mbps) ||
      !r.f64(spec.net_bw_mbps) || !r.f64(spec.priority) ||
      !r.u8(deflatable) || deflatable > 1 || !r.f64(spec.min_fraction) ||
      !r.enum8(spec.workload,
               static_cast<std::uint8_t>(hv::WorkloadClass::Unknown))) {
    return false;
  }
  spec.vcpus = static_cast<int>(vcpus);
  spec.deflatable = deflatable == 1;
  return true;
}

void put_placement(ByteWriter& w, const cluster::PlacementResult& p) {
  w.u8(static_cast<std::uint8_t>(p.status));
  w.u64(p.host_id);
  w.u8(p.needed_reclamation ? 1 : 0);
  w.f64(p.launch_fraction);
}

bool get_placement(ByteReader& r, cluster::PlacementResult& p) {
  std::uint8_t reclamation = 0;
  return r.enum8(p.status, static_cast<std::uint8_t>(
                               cluster::PlacementResult::Status::Rejected)) &&
         r.u64(p.host_id) && r.u8(reclamation) && reclamation <= 1 &&
         (p.needed_reclamation = reclamation == 1, true) &&
         r.f64(p.launch_fraction);
}

struct PayloadEncoder {
  ByteWriter w;

  void operator()(const Hello& m) {
    w.u8(m.codec_version);
    w.str(m.server);
    w.str(m.admission_policy);
    w.u32(static_cast<std::uint32_t>(m.policies.size()));
    for (const std::string& name : m.policies) w.str(name);
    w.u32(static_cast<std::uint32_t>(m.surfaces.size()));
    for (const PolicySurface& surface : m.surfaces) {
      w.str(surface.surface);
      w.u32(static_cast<std::uint32_t>(surface.policies.size()));
      for (const std::string& name : surface.policies) w.str(name);
    }
    w.u32(m.telemetry_every);
  }
  void operator()(const ErrorMsg& m) {
    w.u32(m.code);
    w.str(m.message);
  }
  void operator()(const Shutdown&) {}
  void operator()(const Bye&) {}
  void operator()(const AdmissionRequestMsg& m) {
    w.u64(m.request_id);
    put_spec(w, m.request.spec);
    w.u32(static_cast<std::uint32_t>(m.request.priority_class));
    w.time(m.request.arrival);
    w.u8(m.request.deadline.has_value() ? 1 : 0);
    w.time(m.request.deadline.value_or(sim::SimTime{}));
  }
  void operator()(const AdmissionDecisionMsg& m) {
    w.u64(m.request_id);
    w.u8(static_cast<std::uint8_t>(m.decision.status));
    w.u8(static_cast<std::uint8_t>(m.decision.reason));
    w.f64(m.decision.quoted_price);
    put_placement(w, m.decision.placement);
    w.time(m.decision.retry_at);
  }
  void operator()(const PlaceRequest& m) {
    w.u64(m.vm_id);
    w.vec(m.demand);
    w.f64(m.priority);
    w.u8(m.deflatable ? 1 : 0);
  }
  void operator()(const PlaceResponse& m) {
    w.u64(m.vm_id);
    w.u8(m.accepted ? 1 : 0);
    w.u64(m.host_id);
    w.f64(m.launch_fraction);
  }
  void operator()(const DeflateCommand& m) {
    w.u64(m.vm_id);
    w.vec(m.target);
  }
  void operator()(const DeflationNotice& m) {
    w.u64(m.vm_id);
    w.vec(m.old_alloc);
    w.vec(m.new_alloc);
  }
  void operator()(const UtilizationReport& m) {
    w.u64(m.host_id);
    w.vec(m.available);
    w.vec(m.committed);
    w.f64(m.overcommit_ratio);
  }
  void operator()(const CaptureHeader& m) {
    const ServiceConfig& c = m.config;
    w.u64(c.server_count);
    w.u64(c.shard_count);
    w.u8(static_cast<std::uint8_t>(c.shard_policy));
    w.str(c.shard_policy_name);
    w.str(c.placement_policy);
    w.u64(c.routing_seed);
    w.str(c.admission_policy);
    w.u32(static_cast<std::uint32_t>(c.admission.class_ceilings.size()));
    for (const double ceiling : c.admission.class_ceilings) w.f64(ceiling);
    w.f64(c.admission.default_ceiling);
    w.f64(c.admission.max_defer_hours);
    w.f64(c.on_demand_price);
    w.f64(c.price_trace_hours);
    w.u64(c.price_seed);
    w.f64(c.spot.mean_price);
    w.f64(c.spot.reversion_rate);
    w.f64(c.spot.volatility);
    w.f64(c.spot.shock_rate_per_hour);
    w.f64(c.spot.shock_multiplier);
    w.f64(c.spot.shock_decay_hours);
    w.f64(c.spot.floor_price);
    w.time(c.spot.step);
  }
};

std::optional<Message> decode_payload(MsgType type, const std::uint8_t* data,
                                      std::size_t size) {
  ByteReader r(data, size);
  Message out;
  bool ok = false;
  switch (type) {
    case MsgType::Hello: {
      Hello m;
      std::uint32_t count = 0;
      ok = r.u8(m.codec_version) && r.str(m.server) &&
           r.str(m.admission_policy) && r.u32(count) && count <= 4096;
      for (std::uint32_t i = 0; ok && i < count; ++i) {
        std::string name;
        ok = r.str(name);
        if (ok) m.policies.push_back(std::move(name));
      }
      std::uint32_t surface_count = 0;
      ok = ok && r.u32(surface_count) && surface_count <= kMaxHelloSurfaces;
      for (std::uint32_t s = 0; ok && s < surface_count; ++s) {
        PolicySurface surface;
        std::uint32_t policy_count = 0;
        ok = r.str(surface.surface) && r.u32(policy_count) &&
             policy_count <= 4096;
        for (std::uint32_t i = 0; ok && i < policy_count; ++i) {
          std::string name;
          ok = r.str(name);
          if (ok) surface.policies.push_back(std::move(name));
        }
        if (ok) m.surfaces.push_back(std::move(surface));
      }
      ok = ok && r.u32(m.telemetry_every);
      out = std::move(m);
      break;
    }
    case MsgType::Error: {
      ErrorMsg m;
      ok = r.u32(m.code) && r.str(m.message);
      out = std::move(m);
      break;
    }
    case MsgType::Shutdown:
      out = Shutdown{};
      ok = true;
      break;
    case MsgType::Bye:
      out = Bye{};
      ok = true;
      break;
    case MsgType::AdmissionRequest: {
      AdmissionRequestMsg m;
      std::uint32_t priority_class = 0;
      std::uint8_t has_deadline = 0;
      sim::SimTime deadline;
      ok = r.u64(m.request_id) && get_spec(r, m.request.spec) &&
           r.u32(priority_class) &&
           priority_class < cluster::kAdmissionClasses &&
           r.time(m.request.arrival) && r.u8(has_deadline) &&
           has_deadline <= 1 && r.time(deadline);
      if (ok) {
        m.request.priority_class = priority_class;
        if (has_deadline == 1) m.request.deadline = deadline;
      }
      out = std::move(m);
      break;
    }
    case MsgType::AdmissionDecision: {
      AdmissionDecisionMsg m;
      ok = r.u64(m.request_id) &&
           r.enum8(m.decision.status,
                   static_cast<std::uint8_t>(
                       cluster::AdmissionDecision::Status::Rejected)) &&
           r.enum8(m.decision.reason,
                   static_cast<std::uint8_t>(
                       cluster::AdmissionDecision::Reason::DeadlineExpired)) &&
           r.f64(m.decision.quoted_price) &&
           get_placement(r, m.decision.placement) &&
           r.time(m.decision.retry_at);
      out = std::move(m);
      break;
    }
    case MsgType::PlaceRequest: {
      PlaceRequest m;
      std::uint8_t deflatable = 0;
      ok = r.u64(m.vm_id) && r.vec(m.demand) && r.f64(m.priority) &&
           r.u8(deflatable) && deflatable <= 1;
      m.deflatable = deflatable == 1;
      out = std::move(m);
      break;
    }
    case MsgType::PlaceResponse: {
      PlaceResponse m;
      std::uint8_t accepted = 0;
      ok = r.u64(m.vm_id) && r.u8(accepted) && accepted <= 1 &&
           r.u64(m.host_id) && r.f64(m.launch_fraction);
      m.accepted = accepted == 1;
      out = std::move(m);
      break;
    }
    case MsgType::DeflateCommand: {
      DeflateCommand m;
      ok = r.u64(m.vm_id) && r.vec(m.target);
      out = std::move(m);
      break;
    }
    case MsgType::DeflationNotice: {
      DeflationNotice m;
      ok = r.u64(m.vm_id) && r.vec(m.old_alloc) && r.vec(m.new_alloc);
      out = std::move(m);
      break;
    }
    case MsgType::UtilizationReport: {
      UtilizationReport m;
      ok = r.u64(m.host_id) && r.vec(m.available) && r.vec(m.committed) &&
           r.f64(m.overcommit_ratio);
      out = std::move(m);
      break;
    }
    case MsgType::CaptureHeader: {
      CaptureHeader m;
      ServiceConfig& c = m.config;
      std::uint64_t servers = 0, shards = 0;
      std::uint32_t ceiling_count = 0;
      ok = r.u64(servers) && r.u64(shards) &&
           r.enum8(c.shard_policy,
                   static_cast<std::uint8_t>(
                       cluster::ShardSelectionPolicy::RoundRobin)) &&
           r.str(c.shard_policy_name) && r.str(c.placement_policy) &&
           r.u64(c.routing_seed) && r.str(c.admission_policy) &&
           r.u32(ceiling_count) && ceiling_count <= 4096;
      for (std::uint32_t i = 0; ok && i < ceiling_count; ++i) {
        double ceiling = 0.0;
        ok = r.f64(ceiling);
        c.admission.class_ceilings.push_back(ceiling);
      }
      ok = ok && r.f64(c.admission.default_ceiling) &&
           r.f64(c.admission.max_defer_hours) && r.f64(c.on_demand_price) &&
           r.f64(c.price_trace_hours) && r.u64(c.price_seed) &&
           r.f64(c.spot.mean_price) && r.f64(c.spot.reversion_rate) &&
           r.f64(c.spot.volatility) && r.f64(c.spot.shock_rate_per_hour) &&
           r.f64(c.spot.shock_multiplier) &&
           r.f64(c.spot.shock_decay_hours) && r.f64(c.spot.floor_price) &&
           r.time(c.spot.step);
      c.server_count = static_cast<std::size_t>(servers);
      c.shard_count = static_cast<std::size_t>(shards);
      out = std::move(m);
      break;
    }
  }
  // Strict framing: the payload must be consumed exactly. Trailing bytes
  // mean the peer disagrees about the encoding — reject, don't guess.
  if (!ok || !r.exhausted()) return std::nullopt;
  return out;
}

DecodeResult malformed(std::string error) {
  DecodeResult result;
  result.status = DecodeStatus::Malformed;
  result.error = std::move(error);
  return result;
}

}  // namespace

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::Hello: return "hello";
    case MsgType::Error: return "error";
    case MsgType::Shutdown: return "shutdown";
    case MsgType::Bye: return "bye";
    case MsgType::AdmissionRequest: return "admission_request";
    case MsgType::AdmissionDecision: return "admission_decision";
    case MsgType::PlaceRequest: return "place_request";
    case MsgType::PlaceResponse: return "place_response";
    case MsgType::DeflateCommand: return "deflate_command";
    case MsgType::DeflationNotice: return "deflation_notice";
    case MsgType::UtilizationReport: return "utilization_report";
    case MsgType::CaptureHeader: return "capture_header";
  }
  return "unknown";
}

MsgType message_type(const Message& message) noexcept {
  struct Visitor {
    MsgType operator()(const Hello&) { return MsgType::Hello; }
    MsgType operator()(const ErrorMsg&) { return MsgType::Error; }
    MsgType operator()(const Shutdown&) { return MsgType::Shutdown; }
    MsgType operator()(const Bye&) { return MsgType::Bye; }
    MsgType operator()(const AdmissionRequestMsg&) {
      return MsgType::AdmissionRequest;
    }
    MsgType operator()(const AdmissionDecisionMsg&) {
      return MsgType::AdmissionDecision;
    }
    MsgType operator()(const PlaceRequest&) { return MsgType::PlaceRequest; }
    MsgType operator()(const PlaceResponse&) { return MsgType::PlaceResponse; }
    MsgType operator()(const DeflateCommand&) {
      return MsgType::DeflateCommand;
    }
    MsgType operator()(const DeflationNotice&) {
      return MsgType::DeflationNotice;
    }
    MsgType operator()(const UtilizationReport&) {
      return MsgType::UtilizationReport;
    }
    MsgType operator()(const CaptureHeader&) { return MsgType::CaptureHeader; }
  };
  return std::visit(Visitor{}, message);
}

std::vector<std::uint8_t> encode_frame(const Message& message) {
  PayloadEncoder encoder;
  std::visit([&](const auto& m) { encoder(m); }, message);
  const std::vector<std::uint8_t> payload = encoder.w.take();

  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  frame.push_back(kFrameMagic);
  frame.push_back(kCodecVersion);
  frame.push_back(static_cast<std::uint8_t>(message_type(message)));
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) frame.push_back((len >> (8 * i)) & 0xFF);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderSize) return DecodeResult{};  // NeedMore
  if (data[0] != kFrameMagic) return malformed("bad frame magic");
  if (data[1] != kCodecVersion) {
    return malformed("unsupported codec version " + std::to_string(data[1]) +
                     " (speaking " + std::to_string(kCodecVersion) + ")");
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(data[3 + i]) << (8 * i);
  }
  if (len > kMaxPayload) {
    return malformed("oversized frame: payload length " + std::to_string(len));
  }
  if (size < kHeaderSize + len) return DecodeResult{};  // NeedMore

  const auto raw_type = data[2];
  if (raw_type < static_cast<std::uint8_t>(MsgType::Hello) ||
      raw_type > static_cast<std::uint8_t>(MsgType::CaptureHeader)) {
    return malformed("unknown message type " + std::to_string(raw_type));
  }
  const auto type = static_cast<MsgType>(raw_type);
  auto message = decode_payload(type, data + kHeaderSize, len);
  if (!message) {
    return malformed(std::string("malformed ") + msg_type_name(type) +
                     " payload");
  }
  DecodeResult result;
  result.status = DecodeStatus::Ok;
  result.consumed = kHeaderSize + len;
  result.message = std::move(*message);
  return result;
}

void FrameBuffer::append(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

DecodeResult FrameBuffer::next() {
  if (poisoned_) {
    return malformed("frame buffer poisoned by an earlier malformed frame");
  }
  DecodeResult result =
      decode_frame(buffer_.data() + offset_, buffer_.size() - offset_);
  if (result.status == DecodeStatus::Ok) {
    offset_ += result.consumed;
    // Reclaim consumed bytes once they dominate the buffer.
    if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
      offset_ = 0;
    }
  } else if (result.status == DecodeStatus::Malformed) {
    poisoned_ = true;
  }
  return result;
}

}  // namespace deflate::net
