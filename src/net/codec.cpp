#include "net/codec.hpp"

#include <bit>
#include <concepts>
#include <optional>
#include <type_traits>

namespace deflate::net {

namespace {

// --- field operations -------------------------------------------------------
//
// Writer and Reader offer the same operations, so one `fields(io, msg)`
// overload per payload states its layout once for both directions. The
// Reader's operations are the decoder's input checks: a short payload, a
// flag byte above 1, an enum above its last enumerator, a bounded value at
// or above its bound, or a list longer than its cap fails the read, and
// every later read is a no-op. The Writer checks nothing.

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void time(sim::SimTime t) { put(static_cast<std::uint64_t>(t.micros())); }
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
  void flag(bool v) { u8(v ? 1 : 0); }
  template <typename E>
  void enum8(E v, E /*last*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  template <typename T>
  void as_u32(T v) {
    u32(static_cast<std::uint32_t>(v));
  }
  template <typename T>
  void as_u64(T v) {
    u64(static_cast<std::uint64_t>(v));
  }
  void u32_below(std::size_t v, std::size_t /*bound*/) { as_u32(v); }
  void optional_time(const std::optional<sim::SimTime>& t) {
    flag(t.has_value());
    time(t.value_or(sim::SimTime{}));
  }
  template <typename T, typename Item>
  void list(const std::vector<T>& items, std::uint32_t /*cap*/, Item item) {
    as_u32(items.size());
    for (const T& entry : items) item(*this, entry);
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  template <typename U>
  void put(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  void u8(std::uint8_t& v) { take(v); }
  void u32(std::uint32_t& v) { take(v); }
  void u64(std::uint64_t& v) { take(v); }
  void f64(double& v) {
    std::uint64_t bits = 0;
    if (take(bits)) v = std::bit_cast<double>(bits);
  }
  void time(sim::SimTime& t) {
    std::uint64_t bits = 0;
    if (take(bits)) {
      t = sim::SimTime::from_micros(static_cast<std::int64_t>(bits));
    }
  }
  void str(std::string& s) {
    std::uint32_t len = 0;
    if (!take(len) || !check(size_ - pos_ >= len)) return;
    s.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
  }
  void vec(res::ResourceVector& v) {
    double cpu = 0, mem = 0, disk = 0, net = 0;
    f64(cpu);
    f64(mem);
    f64(disk);
    f64(net);
    v = res::ResourceVector(cpu, mem, disk, net);
  }
  void flag(bool& v) {
    std::uint8_t raw = 0;
    if (take(raw) && check(raw <= 1)) v = raw == 1;
  }
  /// Rejects values above `last`: a frame from a newer peer must not alias
  /// onto a random enumerator.
  template <typename E>
  void enum8(E& v, E last) {
    std::uint8_t raw = 0;
    if (take(raw) && check(raw <= static_cast<std::uint8_t>(last))) {
      v = static_cast<E>(raw);
    }
  }
  template <typename T>
  void as_u32(T& v) {
    std::uint32_t raw = 0;
    if (take(raw)) v = static_cast<T>(raw);
  }
  template <typename T>
  void as_u64(T& v) {
    std::uint64_t raw = 0;
    if (take(raw)) v = static_cast<T>(raw);
  }
  void u32_below(std::size_t& v, std::size_t bound) {
    std::uint32_t raw = 0;
    if (take(raw) && check(raw < bound)) v = raw;
  }
  void optional_time(std::optional<sim::SimTime>& t) {
    bool present = false;
    sim::SimTime value;
    flag(present);
    time(value);
    if (present) t = value;
  }
  template <typename T, typename Item>
  void list(std::vector<T>& items, std::uint32_t cap, Item item) {
    std::uint32_t count = 0;
    if (!take(count) || !check(count <= cap)) return;
    for (std::uint32_t i = 0; ok_ && i < count; ++i) {
      T entry{};
      item(*this, entry);
      items.push_back(std::move(entry));
    }
  }

  /// True when every read succeeded and consumed the payload exactly.
  [[nodiscard]] bool done() const noexcept { return ok_ && pos_ == size_; }

 private:
  bool check(bool condition) {
    ok_ = ok_ && condition;
    return ok_;
  }
  template <typename U>
  bool take(U& v) {
    if (!check(size_ - pos_ >= sizeof(U))) return false;
    v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<U>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(U);
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- payload layouts --------------------------------------------------------
//
// One overload per payload; `M` is const when encoding.

template <typename M, typename T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

/// Entry layouts for `list`.
constexpr auto kString = [](auto& io, auto& s) { io.str(s); };
constexpr auto kDouble = [](auto& io, auto& v) { io.f64(v); };

void fields(auto& io, Of<hv::VmSpec> auto& spec) {
  io.u64(spec.id);
  io.str(spec.name);
  io.as_u32(spec.vcpus);
  io.f64(spec.memory_mib);
  io.f64(spec.disk_bw_mbps);
  io.f64(spec.net_bw_mbps);
  io.f64(spec.priority);
  io.flag(spec.deflatable);
  io.f64(spec.min_fraction);
  io.enum8(spec.workload, hv::WorkloadClass::Unknown);
}

void fields(auto& io, Of<cluster::PlacementResult> auto& p) {
  io.enum8(p.status, cluster::PlacementResult::Status::Rejected);
  io.u64(p.host_id);
  io.flag(p.needed_reclamation);
  io.f64(p.launch_fraction);
}

void fields(auto& io, Of<PolicySurface> auto& m) {
  io.str(m.surface);
  io.list(m.policies, kMaxListLength, kString);
}

void fields(auto& io, Of<Hello> auto& m) {
  io.u8(m.codec_version);
  io.str(m.server);
  io.str(m.admission_policy);
  io.list(m.surfaces, kMaxHelloSurfaces,
          [](auto& sub, auto& surface) { fields(sub, surface); });
  io.u32(m.telemetry_every);
}

void fields(auto& io, Of<ErrorMsg> auto& m) {
  io.u32(m.code);
  io.str(m.message);
}

// Shutdown and Bye carry no payload.
void fields(auto&, Of<Shutdown> auto&) {}
void fields(auto&, Of<Bye> auto&) {}

void fields(auto& io, Of<AdmissionRequestMsg> auto& m) {
  io.u64(m.request_id);
  fields(io, m.request.spec);
  io.u32_below(m.request.priority_class, cluster::kAdmissionClasses);
  io.time(m.request.arrival);
  io.optional_time(m.request.deadline);
}

void fields(auto& io, Of<AdmissionDecisionMsg> auto& m) {
  using Decision = cluster::AdmissionDecision;
  io.u64(m.request_id);
  io.enum8(m.decision.status, Decision::Status::Rejected);
  io.enum8(m.decision.reason, Decision::Reason::DeadlineExpired);
  io.f64(m.decision.quoted_price);
  fields(io, m.decision.placement);
  io.time(m.decision.retry_at);
}

void fields(auto& io, Of<UtilizationReport> auto& m) {
  io.u64(m.host_id);
  io.vec(m.available);
  io.vec(m.committed);
  io.f64(m.overcommit_ratio);
}

void fields(auto& io, Of<CaptureHeader> auto& m) {
  auto& c = m.config;
  io.as_u64(c.server_count);
  io.as_u64(c.shard_count);
  io.str(c.shard_policy_name);
  io.str(c.placement_policy);
  io.u64(c.routing_seed);
  io.str(c.admission_policy);
  io.list(c.admission.class_ceilings, kMaxListLength, kDouble);
  io.f64(c.admission.default_ceiling);
  io.f64(c.admission.max_defer_hours);
  io.f64(c.on_demand_price);
  io.f64(c.price_trace_hours);
  io.u64(c.price_seed);
  io.f64(c.spot.mean_price);
  io.f64(c.spot.reversion_rate);
  io.f64(c.spot.volatility);
  io.f64(c.spot.shock_rate_per_hour);
  io.f64(c.spot.shock_multiplier);
  io.f64(c.spot.shock_decay_hours);
  io.f64(c.spot.floor_price);
  io.time(c.spot.step);
}

/// Strict framing: the payload must be consumed exactly. Trailing bytes
/// mean the peer disagrees about the encoding — reject, don't guess.
template <typename M>
std::optional<Message> decode_as(const std::uint8_t* data, std::size_t size) {
  Reader reader(data, size);
  M message;
  fields(reader, message);
  if (!reader.done()) return std::nullopt;
  return Message{std::move(message)};
}

std::optional<Message> decode_payload(MsgType type, const std::uint8_t* data,
                                      std::size_t size) {
  switch (type) {
    case MsgType::Hello: return decode_as<Hello>(data, size);
    case MsgType::Error: return decode_as<ErrorMsg>(data, size);
    case MsgType::Shutdown: return decode_as<Shutdown>(data, size);
    case MsgType::Bye: return decode_as<Bye>(data, size);
    case MsgType::AdmissionRequest:
      return decode_as<AdmissionRequestMsg>(data, size);
    case MsgType::AdmissionDecision:
      return decode_as<AdmissionDecisionMsg>(data, size);
    case MsgType::UtilizationReport:
      return decode_as<UtilizationReport>(data, size);
    case MsgType::CaptureHeader: return decode_as<CaptureHeader>(data, size);
  }
  return std::nullopt;
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
    case MsgType::UtilizationReport: return "utilization_report";
    case MsgType::CaptureHeader: return "capture_header";
  }
  return "unknown";
}

// Message lists its alternatives in MsgType order, from Hello = 1.
static_assert(std::variant_size_v<Message> ==
              static_cast<std::size_t>(MsgType::CaptureHeader));

MsgType message_type(const Message& message) noexcept {
  return static_cast<MsgType>(message.index() + 1);
}

std::vector<std::uint8_t> encode_frame(const Message& message) {
  Writer w;
  w.u8(kFrameMagic);
  w.u8(kCodecVersion);
  w.u8(static_cast<std::uint8_t>(message_type(message)));
  w.u32(0);  // payload length, patched below
  std::visit([&w](const auto& m) { fields(w, m); }, message);
  std::vector<std::uint8_t> frame = w.take();
  const auto len = static_cast<std::uint32_t>(frame.size() - kHeaderSize);
  for (int i = 0; i < 4; ++i) {
    frame[3 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  return frame;
}

std::optional<std::uint32_t> payload_length(const std::uint8_t* header,
                                            std::string& error) {
  if (header[0] != kFrameMagic) {
    error = "bad frame magic";
    return std::nullopt;
  }
  if (header[1] != kCodecVersion) {
    error = "unsupported codec version " + std::to_string(header[1]) +
            " (speaking " + std::to_string(kCodecVersion) + ")";
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[3 + i]) << (8 * i);
  }
  if (len > kMaxPayload) {
    error = "oversized frame: payload length " + std::to_string(len);
    return std::nullopt;
  }
  return len;
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderSize) return DecodeResult{};  // NeedMore
  std::string error;
  const std::optional<std::uint32_t> len = payload_length(data, error);
  if (!len) return malformed(std::move(error));
  if (size < kHeaderSize + *len) return DecodeResult{};  // NeedMore

  const auto raw_type = data[2];
  if (raw_type < static_cast<std::uint8_t>(MsgType::Hello) ||
      raw_type > static_cast<std::uint8_t>(MsgType::CaptureHeader)) {
    return malformed("unknown message type " + std::to_string(raw_type));
  }
  const auto type = static_cast<MsgType>(raw_type);
  auto message = decode_payload(type, data + kHeaderSize, *len);
  if (!message) {
    return malformed(std::string("malformed ") + msg_type_name(type) +
                     " payload");
  }
  DecodeResult result;
  result.status = DecodeStatus::Ok;
  result.consumed = kHeaderSize + *len;
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
