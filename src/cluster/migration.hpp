// Timed migration engine with cost accounting (ROADMAP: "Live migration
// with cost").
//
// The paper argues deflation beats checkpoint/migration for transient
// revocations *because* migration has a real time cost: streaming a VM's
// memory over a finite link takes longer than the provider's revocation
// warning, so a pure-migration strategy loses VMs that deflation saves.
// This engine models that cost. `MigrationModel` turns a memory footprint
// into a pre-copy duration and a stop-and-copy downtime window using the
// standard dirty-page/memory-streaming shape (arXiv:1406.5760): round i
// retransmits the pages dirtied while round i-1 streamed, converging
// geometrically while the dirty rate stays below the link bandwidth.
// `MigrationEngine` drives it against a `ClusterManagerBase` when a
// revocation *warning* fires (see `transient::RevocationConfig::
// warning_hours`): VMs whose transfer fits inside the warning live-migrate
// (reserved on the destination at stream start, paused only for the
// stop-and-copy window); VMs that cannot finish streaming in time fall
// back at the deadline to a checkpoint + (possibly deflated) relaunch —
// the deflation + checkpointing hybrid — or are checkpoint-killed when no
// surviving server can take them.
//
// A bandwidth of 0 is the *instant* sentinel: migrations take no time and
// charge nothing, reproducing the pre-engine `revoke_server` behavior bit
// for bit (the simulator skips the warning machinery entirely, so
// `test_golden_revocation` pins the sentinel).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hpp"
#include "policy/registry.hpp"
#include "sim/time.hpp"

namespace deflate::cluster {

struct MigrationModelConfig {
  /// Memory-streaming link bandwidth, MiB/s. <= 0 is the *instant*
  /// sentinel: migrations take no time and cost nothing (legacy behavior).
  double bandwidth_mib_per_sec = 0.0;
  /// Rate at which a running VM redirties its memory during pre-copy,
  /// MiB/s. At or above the bandwidth, pre-copy cannot converge.
  double dirty_mib_per_sec = 64.0;
  /// Bandwidth contention: N simultaneous cutover streams leaving one
  /// server share the uplink, so each stream sees bandwidth / N and
  /// stretches accordingly. Off by default (each transfer priced
  /// independently — the pre-contention behavior, bit for bit).
  bool share_bandwidth = false;
};

struct MigrationEstimate {
  sim::SimTime duration;  ///< stream start to cutover (pre-copy + stop-and-copy)
  sim::SimTime downtime;  ///< stop-and-copy window: the VM is paused
  bool converged = true;  ///< false: dirty rate >= bandwidth, pre-copy can't drain
};

class MigrationModel {
 public:
  explicit MigrationModel(MigrationModelConfig config) noexcept
      : config_(config) {}

  /// Instant sentinel: migrations are free and immediate.
  [[nodiscard]] bool instant() const noexcept {
    return config_.bandwidth_mib_per_sec <= 0.0;
  }

  /// Live (pre-copy) migration of `memory_mib` of guest state.
  /// `concurrent_streams` > 1 divides the link `share_bandwidth`-ways when
  /// contention is enabled (ignored otherwise).
  [[nodiscard]] MigrationEstimate precopy(double memory_mib,
                                          int concurrent_streams = 1) const;

  /// Checkpoint/restore: the VM is paused for the whole transfer
  /// (duration == downtime).
  [[nodiscard]] MigrationEstimate checkpoint(double memory_mib,
                                             int concurrent_streams = 1) const;

  [[nodiscard]] const MigrationModelConfig& config() const noexcept {
    return config_;
  }

 private:
  MigrationModelConfig config_;
};

/// What the engine does inside a revocation warning — the registry-visible
/// "mode" of the MigrationEngine. The builtin strategies are the paper's
/// ablation: pure migration, migration with checkpoint fallback (the
/// default), deflated transfer, and the deflation + checkpointing hybrid.
struct MigrationStrategy {
  /// Deflate the VM and stream only the deflated footprint (the paper's
  /// answer: a deflated VM migrates inside warnings a full-size VM
  /// cannot). Applies to live transfers and checkpoint fallbacks alike.
  bool deflate_before_transfer = false;
  /// VMs that cannot finish streaming before the deadline are checkpointed
  /// and relaunched (possibly deflated) on a surviving server instead of
  /// being killed — the deflation + checkpointing hybrid. When false,
  /// missing the deadline is fatal (pure-migration baseline).
  bool checkpoint_fallback = true;
};

/// Registry surface for migration strategies.
struct MigrationSurface {
  static constexpr const char* kSurfaceName = "migration";
  static constexpr const char* kSurfaceDescription =
      "what the migration engine does inside a revocation warning";
  using Factory = std::function<MigrationStrategy()>;
  static void register_builtins(policy::PolicyRegistry<MigrationSurface>&);
};

using MigrationRegistry = policy::PolicyRegistry<MigrationSurface>;

/// Resolves a registered strategy by name; throws std::invalid_argument
/// naming the valid choices when unknown.
[[nodiscard]] MigrationStrategy make_migration_strategy(
    const std::string& name);

struct MigrationEngineConfig {
  MigrationModelConfig model;
  /// Registry name of the strategy; the default streams the full
  /// footprint and checkpoint-relaunches what misses the deadline.
  /// Unknown names throw std::invalid_argument when the engine is built.
  std::string strategy_name = "checkpoint";
};

/// One in-flight migration: the VM holds resources on the destination from
/// `start`, pauses during [cutover_begin, cutover_end), and runs on the
/// destination afterwards.
struct MigrationRecord {
  hv::VmSpec spec;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  double launch_fraction = 1.0;  ///< (possibly deflated) relaunch fraction
  sim::SimTime start;
  sim::SimTime cutover_begin;
  sim::SimTime cutover_end;
  bool live = true;  ///< false: checkpoint/restore fallback
};

/// What `begin_warning` set in motion. VMs in neither list keep running on
/// the doomed server until the deadline (their transfer would not finish
/// in time anyway); their fate is decided by `finish_revocation`.
struct WarningResult {
  std::vector<MigrationRecord> started;
  /// Transfer fits the warning but no destination exists today: the VM is
  /// checkpointed (paused, resources released) and retried at the
  /// deadline. The caller re-presents these to `finish_revocation`.
  std::vector<hv::VmSpec> suspended;
};

struct RevocationFinish {
  std::vector<MigrationRecord> restored;  ///< checkpoint restores begun now
  std::vector<hv::VmSpec> killed;
};

/// What the engine did, counted per VM. Downtime is not here: the engine
/// only schedules pause windows (`MigrationRecord::cutover_begin`/`_end`),
/// and the simulator bills them from its own lifetime-clipped ledger (a
/// VM that departs before its cutover never pauses).
struct MigrationEngineStats {
  std::uint64_t live_migrations = 0;
  std::uint64_t checkpoint_restores = 0;
  std::uint64_t checkpoint_kills = 0;
};

/// Drives timed revocations against any ClusterManagerBase. Placement of
/// displaced VMs goes through the manager's *top-level* `place_vm`, so on
/// a sharded fleet migrations land cross-shard exactly like fresh
/// arrivals. Deflation-mode only: the preemption baseline kills residents
/// at the revocation instant by design.
class MigrationEngine {
 public:
  MigrationEngine(MigrationEngineConfig config, ClusterManagerBase& manager)
      : config_(std::move(config)),
        strategy_(make_migration_strategy(config_.strategy_name)),
        model_(config_.model),
        manager_(manager) {}

  [[nodiscard]] bool timed() const noexcept { return !model_.instant(); }

  /// The provider announced that `server` dies at `deadline`. Drains the
  /// server (no new placements; residents keep running) and starts every
  /// live migration that can finish streaming by the deadline,
  /// highest-priority VMs first.
  WarningResult begin_warning(std::size_t server, sim::SimTime now,
                              sim::SimTime deadline);

  /// The deadline arrived: checkpoint-relaunch (or kill) every VM still on
  /// `server` plus the still-alive `suspended` VMs from the warning phase,
  /// then take the (now empty) server offline via the manager.
  RevocationFinish finish_revocation(std::size_t server, sim::SimTime now,
                                     std::span<const hv::VmSpec> suspended);

  [[nodiscard]] const MigrationEngineStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const MigrationModel& model() const noexcept { return model_; }
  [[nodiscard]] const MigrationEngineConfig& config() const noexcept {
    return config_;
  }

 private:
  /// MiB actually streamed for `spec` (deflated footprint when
  /// `deflate_before_transfer`).
  [[nodiscard]] double transfer_mib(const hv::VmSpec& spec) const;
  /// Streams contending for the doomed server's uplink: the resident
  /// count under `share_bandwidth` (every displacement nominally streams
  /// out together — a conservative contention stub), 1 otherwise.
  [[nodiscard]] int contention_streams(std::size_t residents) const noexcept;

  MigrationEngineConfig config_;
  MigrationStrategy strategy_;
  MigrationModel model_;
  ClusterManagerBase& manager_;
  MigrationEngineStats stats_;
};

}  // namespace deflate::cluster
