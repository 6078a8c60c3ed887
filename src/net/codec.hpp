// Binary codec for the admission service (the deflated daemon), and the
// one message format for the paper's §6 boundary between the central
// cluster manager and the per-server controllers. The same frames cross
// the daemon's socket and fill capture files (capture.hpp). Every message
// travels in a versioned, length-prefixed frame:
//
//   offset  size  field
//   0       1     magic (0xDF)
//   1       1     codec version (kCodecVersion)
//   2       1     message type (MsgType)
//   3       4     payload length, little-endian u32 (<= kMaxPayload)
//   7       len   payload (fixed-width little-endian fields; doubles as
//                 IEEE-754 bit patterns, so round-trips are bit-exact)
//
// The version byte sits in front of the length so an incompatible peer is
// rejected before its framing is trusted. Decoding is strict: a frame is
// either complete and exactly consumed (Ok), not yet fully buffered
// (NeedMore), or rejected (Malformed) — truncated payloads, oversized
// lengths, unknown types, out-of-range enums and trailing payload bytes
// all reject without reading out of bounds (fuzzed in
// tests/test_net_codec.cpp, under ASan/UBSan in CI). Each payload's
// layout is written once, as a field list in codec.cpp that drives both
// encoding and decoding; the tests pin every layout to committed bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "cluster/admission.hpp"
#include "net/service.hpp"
#include "resources/resource_vector.hpp"

namespace deflate::net {

inline constexpr std::uint8_t kFrameMagic = 0xDF;
/// Bumped whenever the frame layout or any payload encoding changes.
/// v2: Hello advertises every policy registry surface (Hello::surfaces).
/// v3: Hello carries `telemetry_every` — a client's Hello subscribes the
///     connection to periodic UtilizationReport telemetry frames.
/// v4: CaptureHeader — a capture file opens with a header frame.
/// v5: PlaceRequest, PlaceResponse, DeflateCommand and DeflationNotice
///     dropped (no sender) and MsgType renumbered; Hello drops its
///     admission-only `policies` list (Hello::surfaces carries it);
///     CaptureHeader carries one shard-policy name instead of the enum
///     plus the name.
inline constexpr std::uint8_t kCodecVersion = 5;
/// Hard cap on advertised surfaces in a Hello (decode rejects above it).
inline constexpr std::uint32_t kMaxHelloSurfaces = 64;
/// Hard cap on every other list in a payload: a surface's policy names
/// and capture class ceilings (decode rejects above it).
inline constexpr std::uint32_t kMaxListLength = 4096;
/// Hard upper bound on payload length; a length field above this is
/// malformed (it would let a broken peer make us buffer without bound).
inline constexpr std::uint32_t kMaxPayload = 1u << 20;
inline constexpr std::size_t kHeaderSize = 7;

enum class MsgType : std::uint8_t {
  Hello = 1,              ///< server -> client greeting (self-describing)
  Error = 2,              ///< either direction: request-level failure
  Shutdown = 3,           ///< client -> server: stop serving
  Bye = 4,                ///< server -> client: shutdown acknowledged
  AdmissionRequest = 5,   ///< client -> server: Admission API v2 request
  AdmissionDecision = 6,  ///< server -> client: decision (direct or drained)
  UtilizationReport = 7,  ///< server -> client: fleet telemetry
  CaptureHeader = 8,      ///< first frame of a capture file, never sent
};

[[nodiscard]] const char* msg_type_name(MsgType type) noexcept;

/// One policy registry surface as advertised in a Hello: the surface's
/// name ("admission", "placement", …) and its registered policy names.
struct PolicySurface {
  std::string surface;
  std::vector<std::string> policies;
};

/// First frame on every connection, server -> client: who is serving, and
/// which policies its registries carry (self-description — a client can
/// pick a policy by name without out-of-band docs).
struct Hello {
  std::uint8_t codec_version = kCodecVersion;
  std::string server;                 ///< free-form banner
  std::string admission_policy;  ///< policy this server decides with
  /// v2: every policy registry surface in the process (admission,
  /// placement, shard-selection, migration, revocation, control — plus
  /// whatever plugins registered), each with its full policy-name list.
  std::vector<PolicySurface> surfaces;
  /// v3: telemetry subscription. Meaningful on a *client* Hello (the only
  /// frame a client may send before its first request): a non-zero value
  /// asks the server to interleave one aggregate UtilizationReport after
  /// every `telemetry_every` admission decisions on this connection.
  /// Zero (default, and on server Hellos) means no telemetry.
  std::uint32_t telemetry_every = 0;
};

struct ErrorMsg {
  std::uint32_t code = 0;
  std::string message;
};

struct Shutdown {};
struct Bye {};

/// Admission API v2 request with a client-assigned correlation id; the
/// matching AdmissionDecisionMsg echoes the id (responses are pipelined,
/// and drained deferral resolutions arrive out of request order).
struct AdmissionRequestMsg {
  std::uint64_t request_id = 0;
  cluster::AdmissionRequest request;
};

struct AdmissionDecisionMsg {
  std::uint64_t request_id = 0;
  cluster::AdmissionDecision decision;
};

/// Server -> manager state update ("each server updates the central
/// master about all changes in server utilization after every deflation
/// event", §6). The daemon sends fleet-wide aggregates as telemetry.
struct UtilizationReport {
  std::uint64_t host_id = 0;
  res::ResourceVector available;
  res::ResourceVector committed;
  double overcommit_ratio = 0.0;
};

/// First frame of a capture file: the decision-relevant ServiceConfig the
/// daemon ran with (fleet, routing, admission and price-trace fields).
/// The shard selection travels as one name, `shard_policy_name`, which
/// ServiceCore resolves (shard_policy_of) before the daemon writes the
/// header. Socket-level fields (port, worker
/// threads, capture path, banner) are not encoded and decode to their
/// defaults, as does the `shard_policy` alias.
struct CaptureHeader {
  ServiceConfig config;
};

/// Alternatives in MsgType order: message_type() is index() + 1.
using Message =
    std::variant<Hello, ErrorMsg, Shutdown, Bye, AdmissionRequestMsg,
                 AdmissionDecisionMsg, UtilizationReport, CaptureHeader>;

[[nodiscard]] MsgType message_type(const Message& message) noexcept;

/// Encodes one complete frame (header + payload).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Message& message);

enum class DecodeStatus { Ok, NeedMore, Malformed };

struct DecodeResult {
  DecodeStatus status = DecodeStatus::NeedMore;
  /// Bytes consumed from the input: the full frame on Ok, 0 otherwise.
  std::size_t consumed = 0;
  Message message;    ///< valid only when status == Ok
  std::string error;  ///< set only when status == Malformed
};

/// Checks the kHeaderSize-byte frame header at `header` (magic, codec
/// version, length <= kMaxPayload) and returns the payload length it
/// announces, or nullopt with the reason in `error`. decode_frame runs it
/// on every frame; stream readers use it to size the payload read.
[[nodiscard]] std::optional<std::uint32_t> payload_length(
    const std::uint8_t* header, std::string& error);

/// Decodes the frame starting at `data`. Never reads past `data + size`.
[[nodiscard]] DecodeResult decode_frame(const std::uint8_t* data,
                                        std::size_t size);

/// Incremental frame extraction over a byte stream (socket reads land in
/// arbitrary chunks). A malformed frame poisons the buffer: framing can
/// not be resynchronized after a corrupt length field, so the connection
/// must be dropped.
class FrameBuffer {
 public:
  void append(const std::uint8_t* data, std::size_t size);

  /// Extracts the next complete frame; NeedMore when the buffer holds only
  /// a partial frame (or was poisoned — `poisoned()` disambiguates).
  [[nodiscard]] DecodeResult next();

  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - offset_;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;
  bool poisoned_ = false;
};

}  // namespace deflate::net
