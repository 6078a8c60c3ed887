// Bounded-memory streaming trace replay (ROADMAP: "production-trace
// megafleet scenario").
//
// The generators in this directory key every draw by (seed, vm id), so a
// trace never has to exist in memory to be replayed. This layer keeps only
// a sorted *arrival index* of cheap ArrivalStubs (id, start, end, size)
// and materializes the heavyweight VmRecords — the 5-minute utilization
// series — lazily, one at a time, in arrival order. Memory is O(index)
// plus the records the caller holds; the full fleet is never resident.
//
// Three sources share the index machinery:
//   * Azure:   AzureTraceGenerator::arrival_of / generate_vm
//   * Alibaba: container records adapted to VMs (class/size/lifetime drawn
//     from a separate keyed stream; the CPU series is synthesized from the
//     container's bandwidth series, which correlate with request load)
//   * Capture: PR-6 `deflated --capture` session files — the captured
//     AdmissionRequests replayed as arrivals with keyed synthetic lifetimes
//
// Determinism contract: the record sequence produced by next() is a pure
// function of the source config, ordered by (start, id). Each record is
// generated from its own (seed, id)-keyed stream, so the stub index, which
// is built with util::parallel_for, and therefore every replay result are
// bit-identical at any DEFLATE_THREADS (pinned by
// tests/test_trace_replay.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "resources/resource_vector.hpp"
#include "trace/alibaba.hpp"
#include "trace/azure.hpp"
#include "trace/vm_record.hpp"

namespace deflate::trace {

/// Time-ordered VM arrival source. Single-pass with rewind: next() yields
/// records in (start, id) order until exhausted; reset() rewinds to the
/// first arrival.
class VmArrivalStream {
 public:
  virtual ~VmArrivalStream() = default;

  /// The next record in (start, id) order; nullopt when exhausted.
  [[nodiscard]] virtual std::optional<VmRecord> next() = 0;

  /// Rewinds to the first arrival.
  virtual void reset() = 0;

  /// Total number of arrivals the stream yields per pass.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Latest record end across all arrivals (the replay horizon).
  [[nodiscard]] virtual sim::SimTime horizon() const noexcept = 0;

  /// Peak concurrently-committed resources over the whole trace, computed
  /// from the stub index (placement commits CPU + memory only, matching
  /// VmRecord::to_spec).
  [[nodiscard]] virtual res::ResourceVector peak_committed() const noexcept = 0;
};

/// The generated-trace stream: a sorted stub index plus a materializer.
/// All three sources are an index + a (seed, id)-keyed record function.
class IndexedArrivalStream final : public VmArrivalStream {
 public:
  using Materializer = std::function<VmRecord(std::uint64_t id)>;

  /// Sorts `stubs` by (start, id); `materialize(id)` must return the full
  /// record for a stub's id (header fields equal to the stub).
  IndexedArrivalStream(std::vector<ArrivalStub> stubs,
                       Materializer materialize);

  /// Materializes exactly the record it returns.
  [[nodiscard]] std::optional<VmRecord> next() override;
  void reset() override;
  [[nodiscard]] std::size_t size() const noexcept override {
    return stubs_.size();
  }
  [[nodiscard]] sim::SimTime horizon() const noexcept override {
    return horizon_;
  }
  [[nodiscard]] res::ResourceVector peak_committed() const noexcept override {
    return peak_;
  }

  /// The arrival index, sorted by (start, id).
  [[nodiscard]] const std::vector<ArrivalStub>& stubs() const noexcept {
    return stubs_;
  }

 private:
  std::vector<ArrivalStub> stubs_;
  Materializer materialize_;
  std::size_t cursor_ = 0;  ///< next stub to materialize
  sim::SimTime horizon_;
  res::ResourceVector peak_;
};

/// Peak concurrently-committed (cpu, memory) over a set of arrivals, in
/// any order; departures at an instant free capacity before that
/// instant's arrivals. The one sweep every stream and sizing helper uses.
[[nodiscard]] res::ResourceVector peak_committed(std::vector<ArrivalStub> stubs);

enum class ArrivalSource { Azure, Alibaba, Capture };
[[nodiscard]] const char* arrival_source_name(ArrivalSource s) noexcept;

/// Adapter knobs for replaying Alibaba-style container records as VMs. The
/// container trace has no arrival times, sizes or CPU series of its own:
/// class/size/lifetime come from a keyed stream separate from the container
/// generator's (so the container series stay bit-identical to the
/// standalone generator), and the CPU series is synthesized from the
/// container's memory-bandwidth / disk / network series — the signals that
/// track request load in the Alibaba data (§3.2.2).
struct AlibabaReplayConfig {
  AlibabaTraceConfig containers;
  /// Lifetimes: bounded Pareto on [min_lifetime, containers.duration].
  sim::SimTime min_lifetime = sim::SimTime::from_hours(1);
  /// Long-running services dominate the Alibaba cluster.
  double interactive_share = 0.55;
  double delay_insensitive_share = 0.35;  ///< remainder is "unknown"
};

/// Replays a PR-6 capture file (`deflated --capture`) as an arrival
/// source: every captured AdmissionRequest becomes one VM, arriving at its
/// captured request arrival time. The capture carries no departures, so
/// lifetimes are synthesized keyed by (seed, record index); the CPU series
/// is flat at a level that round-trips the captured priority class through
/// VmRecord::priority_from_p95.
struct CaptureReplayConfig {
  std::string path;
  std::uint64_t seed = 7;
  sim::SimTime min_lifetime = sim::SimTime::from_hours(1);
  sim::SimTime max_lifetime = sim::SimTime::from_hours(24);
};

struct ReplayConfig {
  ArrivalSource source = ArrivalSource::Azure;
  AzureTraceConfig azure;
  AlibabaReplayConfig alibaba;
  CaptureReplayConfig capture;
  /// Arrival-rate multiplier: scales the number of VMs offered per unit
  /// time. Generated sources scale their population count (fresh ids draw
  /// fresh keyed streams, so the class and lifetime mixes are invariant —
  /// pinned by the generator property tests); the capture source replays
  /// the captured sequence ceil(multiplier) times with remapped ids.
  double rate_multiplier = 1.0;
  /// Horizon multiplier: stretches the trace duration at constant arrival
  /// rate (generated sources scale duration *and* population together; the
  /// capture source stretches its captured arrival times).
  double duration_scale = 1.0;
  /// ignored: next() materializes one record; delete once perfbench/ stops assigning it
  std::size_t window = 1024;
  /// ignored: the stream runs no threads; delete once perfbench/ stops assigning it
  std::size_t worker_threads = 0;
};

/// Builds the configured stream. Throws std::runtime_error on an
/// unreadable or corrupt capture file (truncated, bit-flipped or oversized
/// frames all fail cleanly — never a partial fleet).
[[nodiscard]] std::unique_ptr<VmArrivalStream> make_arrival_stream(
    const ReplayConfig& config);

/// Servers that set cluster overcommitment to `overcommit` for the
/// stream's trace — the stub-index equivalent of
/// TraceDrivenSimulator::servers_for_overcommit, O(index) memory.
[[nodiscard]] std::size_t servers_for_overcommit(
    const VmArrivalStream& stream, const res::ResourceVector& server_capacity,
    double overcommit);

/// Servers that fit a trace with peak committed resources `peak` at
/// `overcommit` (0.5 = 50%): capacity = peak / (1 + overcommit), rounded
/// up, at least one server.
[[nodiscard]] std::size_t servers_for_overcommit(
    const res::ResourceVector& peak, const res::ResourceVector& server_capacity,
    double overcommit);

}  // namespace deflate::trace
