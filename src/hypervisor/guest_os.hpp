// Guest operating-system model.
//
// Explicit (hotplug) deflation is visible to the guest, and the guest is
// allowed to refuse unsafe requests (§4.3: "the guest OS unplugs the CPU
// only if it is safe to do so"; memory unplug beyond the resident set would
// force swapping). This model captures exactly the guest behaviour the
// paper's hybrid mechanism depends on:
//   * vCPU unplug succeeds only down to max(1, ceil(runnable load)).
//   * memory unplug succeeds only down to RSS plus a kernel reserve, and
//     only in whole hotplug blocks (coarse granularity, §4.3).
//   * squeezing *transparently* below RSS produces swap pressure, which the
//     performance models translate into slowdown (Fig. 14).
#pragma once

#include <cstdint>

namespace deflate::hv {

/// Memory hotplug granularity. Linux hotplugs memory in sections; 128 MiB
/// matches x86-64 defaults.
inline constexpr double kMemoryBlockMib = 128.0;

class GuestOs {
 public:
  GuestOs(int vcpus, double memory_mib, double kernel_reserve_mib = 256.0);

  // --- workload-driven state ------------------------------------------------
  /// Sets the application resident set (clamped to plugged memory).
  void set_rss(double rss_mib) noexcept;
  /// Sets runnable CPU load in cores (drives vCPU unplug safety).
  void set_cpu_load(double cores) noexcept;

  [[nodiscard]] int vcpus() const noexcept { return vcpus_; }
  [[nodiscard]] double plugged_memory_mib() const noexcept { return memory_mib_; }
  [[nodiscard]] double rss_mib() const noexcept { return rss_mib_; }
  [[nodiscard]] double cpu_load() const noexcept { return cpu_load_; }

  // --- agent-mediated hotplug (explicit deflation) ---------------------------
  /// Requests the guest online exactly `target` vCPUs. Returns the resulting
  /// count: growing always succeeds (up to `max_vcpus`), shrinking stops at
  /// the safety floor max(1, ceil(cpu_load)).
  int request_vcpus(int target, int max_vcpus);

  /// Requests plugged memory of `target_mib`. The result is block-aligned
  /// and never below max(reserve + RSS, one block); growing succeeds up to
  /// `max_mib`. Returns the resulting plugged size.
  double request_memory(double target_mib, double max_mib);

  /// Balloon driver (virtio-balloon model): pins guest pages so the host
  /// can reclaim them. Page-granular (no block alignment) and allowed to
  /// squeeze into the resident set (the guest then swaps). Returns the
  /// achieved *usable* memory, i.e. plugged - balloon.
  double request_balloon_target(double usable_mib);
  [[nodiscard]] double balloon_mib() const noexcept { return balloon_mib_; }
  /// plugged - balloon: what the guest can actually use.
  [[nodiscard]] double usable_memory_mib() const noexcept {
    return memory_mib_ - balloon_mib_;
  }

  /// Safety thresholds used by the hybrid mechanism (Fig. 13,
  /// get_hp_threshold()).
  [[nodiscard]] int vcpu_unplug_floor() const noexcept;
  [[nodiscard]] double memory_unplug_floor_mib() const noexcept;

  // --- transparent-pressure reaction -----------------------------------------
  /// Swap pressure in [0, 1] if the *physical* allocation is `limit_mib`:
  /// zero while the limit covers RSS + reserve, then the unbacked fraction
  /// of the RSS. Drives the memory-performance model.
  [[nodiscard]] double swap_pressure(double limit_mib) const noexcept;

 private:
  static double align_up_block(double mib) noexcept;

  int vcpus_;
  double memory_mib_;
  double kernel_reserve_mib_;
  double balloon_mib_ = 0.0;
  double rss_mib_ = 0.0;
  double cpu_load_ = 0.0;
};

}  // namespace deflate::hv
