// In-memory span recorder for the traced benchmark runs.
//
// A span is (name, start, end, parent): the benchmark opens one around
// every call it makes into a layer, so a call made while another span is
// open (the manager placement inside an admission decision, say) becomes
// that span's child. Spans stay in memory while the run is measured and
// are written out once at the end. A layer's self time is its spans'
// durations minus the parts their direct children cover.
//
// Single-threaded: one recorder per thread of control.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using NameId = std::uint32_t;
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  struct Span {
    NameId name = 0;
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Per-name aggregate over the recorded spans.
  struct NameStats {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::vector<double> durations_ns;
  };

  SpanRecorder();

  /// The id of `name`, registering it on first use.
  NameId intern(const std::string& name);

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(NameId name);
  /// Closes the span `open` returned (spans close in LIFO order).
  void close(std::size_t index);

  /// RAII span; a null recorder makes it a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, NameId name)
        : recorder_(recorder),
          index_(recorder != nullptr ? recorder->open(name) : 0) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Aggregates by span name.
  [[nodiscard]] std::map<std::string, NameStats> stats() const;

  /// Writes "name,start_ns,end_ns,parent" lines (parent = -1 at the root),
  /// preceded by `header` lines prefixed with '#'. False on an I/O error.
  bool write_csv(const std::string& path,
                 const std::vector<std::string>& header) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

}  // namespace perfbench
