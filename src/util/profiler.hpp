// Lightweight scoped profiler: RAII scopes accumulate wall time into named
// per-phase counters, and every scenario bench prints the breakdown at
// exit. Designed for always-on use in hot simulation paths:
//
//   void ClusterManager::place_vm(...) {
//     DEFLATE_PROFILE_SCOPE("cluster.place");
//     ...
//   }
//
// A scope costs two steady_clock reads plus two relaxed atomic adds; the
// phase lookup happens once per call site (function-local static). All
// phases are process-global and thread-safe: concurrent scopes on the same
// phase accumulate independently via atomics, so parallel_for threads can
// be profiled without locks on the hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace deflate::util {

/// One named accumulator. Addresses are stable for the process lifetime
/// (the registry never erases), so call sites cache a reference.
class ProfilePhase {
 public:
  explicit ProfilePhase(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t nanos) noexcept {
    nanos_.fetch_add(nanos, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  void reset() noexcept {
    nanos_.store(0, std::memory_order_relaxed);
    calls_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t nanos() const noexcept {
    return nanos_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> nanos_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// Process-wide phase registry.
class Profiler {
 public:
  static Profiler& instance();

  /// Returns the phase registered under `name`, creating it on first use.
  /// Thread-safe; the returned reference is valid forever.
  ProfilePhase& phase(const char* name);

  /// Zeroes every phase (benches call this between configurations so each
  /// run reports its own breakdown).
  void reset();

  struct PhaseStats {
    std::string name;
    std::uint64_t calls = 0;
    double seconds = 0.0;
  };
  /// Non-zero phases, sorted by total time descending.
  [[nodiscard]] std::vector<PhaseStats> snapshot() const;

  /// Prints the per-phase breakdown as an aligned table (nothing when no
  /// phase has fired — a build with cold paths stays silent).
  void report(std::ostream& out) const;

 private:
  Profiler() = default;
  struct Impl;
  Impl& impl() const;
};

/// RAII timer adding its lifetime to a phase.
class ScopedTimer {
 public:
  explicit ScopedTimer(ProfilePhase& phase) noexcept
      : phase_(phase), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    phase_.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfilePhase& phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace deflate::util

#define DEFLATE_PROFILE_CONCAT_INNER(a, b) a##b
#define DEFLATE_PROFILE_CONCAT(a, b) DEFLATE_PROFILE_CONCAT_INNER(a, b)

/// Times the enclosing scope under `name` (a string literal).
#define DEFLATE_PROFILE_SCOPE(name)                                     \
  static ::deflate::util::ProfilePhase& DEFLATE_PROFILE_CONCAT(         \
      deflate_profile_phase_, __LINE__) =                               \
      ::deflate::util::Profiler::instance().phase(name);                \
  ::deflate::util::ScopedTimer DEFLATE_PROFILE_CONCAT(                  \
      deflate_profile_timer_,                                           \
      __LINE__)(DEFLATE_PROFILE_CONCAT(deflate_profile_phase_, __LINE__))
