// Message-log capture and deterministic replay for the admission service.
//
// A capture file is codec frames (codec.hpp) end to end:
//   first:  one CaptureHeader frame carrying the ServiceConfig the daemon
//           ran with (doubles as IEEE-754 bit patterns, so the replayer
//           rebuilds a bit-identical price trace and fleet);
//   then:   records, each [u32 LE connection id][codec frame].
// The frame's version byte is the file's only version check: a capture
// written by another codec version is rejected at its header.
//
// The daemon appends every AdmissionRequest frame it accepts and every
// AdmissionDecision frame it sends (direct responses and drained deferral
// resolutions alike), in the global decision order — records are written
// by the server's one loop thread as it decides, so file order IS
// decision order.
//
// replay_capture() rebuilds a fresh ServiceCore from the header, serves
// the captured requests through one Session per connection id — the live
// server's own step, so exactly the way the server did by construction —
// and verifies the regenerated decision frames are byte-identical to the
// captured ones: deferral retry ordering, quoted prices, placement host
// ids and all. A nonzero `mismatches` means the service's decision path
// is no longer deterministic (or the log was tampered with).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "net/service.hpp"

namespace deflate::net {

/// Append-only capture writer. Not thread-safe: only the server's loop
/// thread calls it (which is what makes file order = decision order).
class CaptureWriter {
 public:
  /// Opens `path` (truncating) and writes the header frame; `valid()`
  /// reports whether the file opened.
  CaptureWriter(const std::string& path, const ServiceConfig& config);

  [[nodiscard]] bool valid() const noexcept { return out_.is_open(); }

  /// Appends one [conn_id][frame] record.
  void record(std::uint32_t conn_id, const std::vector<std::uint8_t>& frame);

  void flush() { out_.flush(); }

 private:
  std::ofstream out_;
};

/// One [conn id][frame] record of a capture file.
struct CaptureRecord {
  std::size_t index = 0;  ///< position among the file's records, from 0
  std::uint32_t conn_id = 0;
  std::vector<std::uint8_t> frame;  ///< the frame bytes exactly as captured
  Message message;                  ///< the decoded frame
};

/// The one parser of capture files. It checks structure only — a missing,
/// foreign or corrupt header frame, a truncated record or frame, an
/// oversized length, a frame the codec rejects — and stops at the first
/// defect with a message in error(). What the records mean is the caller's
/// to judge.
class CaptureReader {
 public:
  /// Opens `path` and decodes its header frame.
  explicit CaptureReader(const std::string& path);

  /// Empty while the file is well-formed so far.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// The header's config; meaningful only while error() is empty. Fields
  /// the header does not carry (port, threads, capture path, banner) keep
  /// their defaults — they do not affect decisions.
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// Reads the next record; false at a clean end of file or on a defect
  /// (error() then says which).
  bool next(CaptureRecord& record);

 private:
  std::ifstream in_;
  ServiceConfig config_;
  std::string error_;
  std::size_t records_ = 0;
};

struct ReplayReport {
  std::size_t requests = 0;    ///< captured AdmissionRequest records
  std::size_t decisions = 0;   ///< captured AdmissionDecision records
  std::size_t mismatches = 0;  ///< decisions the fresh controller disagreed on
  /// First few mismatch descriptions (for the CLI).
  std::vector<std::string> details;
  /// Load-level failure (unreadable file, bad header, a header naming an
  /// unregistered policy, corrupt record); empty when the log itself was
  /// well-formed.
  std::string error;

  [[nodiscard]] bool ok() const noexcept {
    return error.empty() && mismatches == 0;
  }
};

/// Replays `path` through a fresh ServiceCore; see the header comment.
/// Never throws on a bad file: every load failure lands in `error`.
[[nodiscard]] ReplayReport replay_capture(const std::string& path);

}  // namespace deflate::net
