// Trace-driven cluster simulation (§7.1.2, §7.4).
//
// Replays Azure-style VM arrivals/departures against a ClusterManager:
// interactive VMs are deflatable (with P95-derived priorities), the rest
// are on-demand. Deflation/reinflation happen on arrival pressure and
// departure slack, exactly as in the paper's evaluation. The simulator
// produces the three cluster-level metrics of Figs. 20-22:
//   * reclamation-failure probability (or preemption probability for the
//     preemption baseline),
//   * throughput loss — the time-integrated utilization above the deflated
//     allocation (Fig. 4's shaded area) over all deflatable VMs,
//   * revenue integrals for the §5.2.2 pricing schemes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "cluster/admission.hpp"
#include "cluster/cluster_manager.hpp"
#include "cluster/migration.hpp"
#include "cluster/pricing.hpp"
#include "cluster/sharded_manager.hpp"
#include "control/controller.hpp"
#include "policy/policy_set.hpp"
#include "trace/replay.hpp"
#include "trace/vm_record.hpp"
#include "transient/market.hpp"
#include "util/id_index.hpp"

namespace deflate::simcluster {

struct SimConfig {
  core::PolicyKind policy = core::PolicyKind::Proportional;
  cluster::ReclamationMode mode = cluster::ReclamationMode::Deflation;
  mech::MechanismKind mechanism = mech::MechanismKind::Hybrid;
  cluster::PlacementStrategy placement = cluster::PlacementStrategy::Fitness;
  bool reinflate_on_departure = true;
  bool partitioned = false;
  std::size_t server_count = 40;
  res::ResourceVector server_capacity{48.0, 128.0 * 1024.0, 1e9, 1e9};

  // --- fleet sharding (src/cluster/sharded_manager) ---
  /// Number of placement shards; 1 = the flat fleet (no routing).
  std::size_t shard_count = 1;
  cluster::ShardSelectionPolicy shard_selection =
      cluster::ShardSelectionPolicy::PowerOfTwoChoices;
  std::uint64_t shard_routing_seed = 42;
  /// ignored: the fleet places serially; delete once perfbench/ stops assigning it
  std::size_t worker_threads = 0;

  // --- transient market (src/transient) ---
  /// Enables the spot-price / revocation / portfolio layer. With
  /// `market.revocation.model == None` and `market.use_portfolio == false`
  /// the simulation is identical to the non-market one. Multi-market
  /// fleets configure `market.markets` (one MarketDef per zone/instance
  /// type) plus `market.correlation`; the plan then spreads the transient
  /// servers across the markets by portfolio weight, with one revocation
  /// stream per market.
  bool market_enabled = false;
  transient::MarketEngineConfig market;

  // --- admission (src/cluster/admission) ---
  /// Admission API v2: every arrival flows through an AdmissionController
  /// before placement. The default AdmitAll policy is bit-identical to
  /// pre-admission behavior; PriceThreshold/BidOptimized defer deflatable
  /// launches while the spot quote exceeds the per-class ceiling, with
  /// deferred arrivals re-entering the event loop as retry events and
  /// expired deferrals counted as rejections (their unserved demand billed
  /// into the cost report at the on-demand rate). The BidOptimized policy
  /// takes its ceilings from `market.optimize_bids`' per-class optima
  /// (`CapacityPlan::class_ceilings`); without a market plan the
  /// price-aware policies degrade to AdmitAll.
  cluster::AdmissionConfig admission;

  // --- telemetry observer ---
  /// When set, the simulator stands in for the per-server controllers of
  /// the paper's §6 boundary ("each server updates the central master
  /// about all changes in server utilization"): at every tick boundary
  /// (the same cadence as flush_views) it calls this once per active
  /// server with the server's id and host. An observer only reads — it
  /// never feeds a decision, so a run is identical with or without one.
  /// Empty (default) costs nothing.
  std::function<void(std::size_t server, const hv::Host& host)>
      telemetry_bus;

  // --- declarative policy selection (src/policy) ---
  /// Registry names (+ per-policy parameter overrides) for the six
  /// pluggable surfaces. A non-empty choice is validated against its
  /// registry at construction (std::invalid_argument lists the valid
  /// names) and selects the policy; an empty one leaves the selection to
  /// the enum alias above (`placement`, `shard_selection`,
  /// `admission.policy`, `market.revocation.model`) or, for migration,
  /// to `migration.strategy_name`. Link-time plugin policies have no
  /// enum alias and are selected here.
  policy::PolicySet policies;

  // --- online control plane (src/control) ---
  /// Rolling re-optimization: with `control.enabled`, a FleetController
  /// wakes every `control.reopt_hours` of simulated time, refits its
  /// revocation/price/correlation estimators on the realized window,
  /// re-runs the portfolio + bid optimizers against the forecasts, pushes
  /// updated per-class ceilings into the live admission controller at a
  /// tick barrier, and executes the plan delta as rate-limited drains
  /// through the migration machinery. `control.regime_shift` optionally
  /// rewrites the market environment mid-run (applied whether or not the
  /// controller is enabled, so enabled/disabled runs face the same
  /// world). Disabled (default) keeps the one-shot t=0 plan,
  /// bit-identical to earlier releases.
  control::ControlConfig control;

  // --- timed migration (src/cluster/migration) ---
  /// With `migration.model.bandwidth_mib_per_sec > 0` (and a deflation-mode
  /// market), revocations become *timed*: each market's
  /// `revocation.warning_hours` opens a drain window in which VMs stream
  /// off the doomed server, in-flight migrations advance across ticks, and
  /// stop-and-copy / checkpoint downtime is charged to throughput loss and
  /// the cost report. Bandwidth 0 (default) is the instant sentinel: the
  /// legacy free re-place path, bit-identical to earlier behavior.
  cluster::MigrationEngineConfig migration;
};

struct SimMetrics {
  // --- Fig. 20 ---
  std::uint64_t reclamation_attempts = 0;
  std::uint64_t reclamation_failures = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t rejections = 0;
  /// Reclamation failures per deflatable VM — directly comparable to the
  /// preemption probability ("for traditional preemptible instances, it is
  /// the same as preemption probability", §7.4.1).
  double failure_probability = 0.0;
  /// failures / reclamation attempts (conditional failure rate).
  double failure_rate_per_attempt = 0.0;
  /// preempted deflatable VMs / all deflatable VMs (preemption mode).
  double preemption_probability = 0.0;

  // --- Fig. 21 ---
  /// sum over deflatable VMs of usage above allocation, / total usage.
  double throughput_loss = 0.0;

  // --- Fig. 22 ---
  cluster::RevenueTotals revenue;

  // --- transient market ---
  std::uint64_t revocations = 0;            ///< server-revocation events
  std::uint64_t revocation_migrations = 0;  ///< VMs re-placed off revoked servers
  std::uint64_t revocation_kills = 0;       ///< VMs lost to revocations

  // --- admission (cluster::AdmissionController; all zero under AdmitAll) ---
  std::uint64_t admission_deferrals = 0;  ///< requests deferred at least once
  std::uint64_t admission_retries = 0;    ///< deferrals re-deferred by a drain
  std::uint64_t admission_expired = 0;    ///< deadline hits; also in rejections
  /// Total arrival→launch delay of deferrals that were eventually admitted.
  double admission_delay_hours = 0.0;
  /// Demand the fleet failed to serve for non-admission reasons (capacity
  /// rejections in full, the unserved remainder of preempted/killed VMs),
  /// in committed core-hours. Admission-caused unserved demand is billed
  /// separately in `cost.admission_unserved_core_hours`.
  double unserved_core_hours = 0.0;

  // --- timed migration (cluster::MigrationEngine; all zero when instant) ---
  std::uint64_t live_migrations = 0;      ///< finished streaming inside the warning
  std::uint64_t checkpoint_restores = 0;  ///< missed it; checkpointed + relaunched
  std::uint64_t checkpoint_kills = 0;     ///< missed it; no survivor could take them
  double migration_downtime_hours = 0.0;  ///< VM-paused transfer windows
  /// Fraction of the fleet bought on the transient market.
  double transient_server_share = 0.0;
  /// Fleet cost over the horizon (per-core-hour prices, on-demand = 1.0).
  transient::CostReport cost;
  /// Mean per-core-hour cost of the portfolio mix (1.0 = all on-demand).
  double portfolio_expected_cost = 1.0;

  // --- online control plane (src/control; zero when disabled) ---
  std::uint64_t control_reopts = 0;  ///< re-optimization windows executed
  std::uint64_t control_moves = 0;   ///< cross-market server moves scheduled

  // --- context ---
  double achieved_overcommit = 0.0;  ///< peak committed / capacity - 1
  double mean_cpu_deflation = 0.0;   ///< time-weighted over deflatable VMs
  std::uint64_t vm_count = 0;
  std::uint64_t deflatable_count = 0;

  bool operator==(const SimMetrics&) const = default;
};

/// Append-only storage in fixed-size chunks: an element never moves, so a
/// pointer to it stays valid while the storage grows.
template <typename T>
class ChunkedSlots {
 public:
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] T& operator[](std::uint32_t i) noexcept {
    return chunks_[i >> kShift][i & kMask];
  }
  /// Appends one value-initialized element and returns its index.
  std::uint32_t grow() {
    if ((size_ & kMask) == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
    }
    return size_++;
  }

 private:
  static constexpr unsigned kShift = 8;
  static constexpr std::uint32_t kChunk = 1U << kShift;
  static constexpr std::uint32_t kMask = kChunk - 1;
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t size_ = 0;
};

/// Both constructors feed one event loop, which admits every arrival the
/// same way: the record moves into the arriving VM's slot and is freed
/// when the VM departs.
class TraceDrivenSimulator {
 public:
  /// Replays an in-memory trace. The records may come in any order: the
  /// simulator sorts them by (start, id) once and keeps them, and each
  /// arrival's record is moved out of that vector into its VM's slot, so
  /// no series is ever copied and a departed VM's series is freed.
  /// Throws std::invalid_argument on a duplicate VM id.
  TraceDrivenSimulator(std::vector<trace::VmRecord> records, SimConfig config);

  /// Replays arrivals from `stream` (non-owning; must outlive the
  /// simulator, and must be freshly constructed or reset()). Memory is
  /// O(active + stream window) instead of O(fleet).
  TraceDrivenSimulator(trace::VmArrivalStream& stream, SimConfig config);

  /// Replays the whole trace; single-shot (construct a new simulator for
  /// another run).
  SimMetrics run();

  /// High-water mark of concurrently-resident VM records. The megafleet
  /// bench gates on this staying far below the stream's total size (the
  /// bounded-memory claim, made measurable).
  [[nodiscard]] std::size_t peak_active_records() const noexcept {
    return peak_active_;
  }

  /// The manager's counters with the admission breakdown folded in — the
  /// source of SimMetrics' reclamation/rejection counts.
  [[nodiscard]] cluster::ClusterStats cluster_stats() const {
    return admission_->cluster_stats();
  }

  // --- sizing helpers --------------------------------------------------------
  /// Peak concurrently-committed resources of the trace (the paper sizes
  /// the baseline cluster so this peak fits without any reclamation).
  [[nodiscard]] static res::ResourceVector peak_committed(
      const std::vector<trace::VmRecord>& records);

  /// Number of servers that sets cluster overcommitment to `overcommit`
  /// (0.5 = 50%): capacity = peak / (1 + overcommit), per the paper's
  /// protocol of shrinking the minimum-feasible cluster.
  [[nodiscard]] static std::size_t servers_for_overcommit(
      const std::vector<trace::VmRecord>& records,
      const res::ResourceVector& server_capacity, double overcommit);

  /// The paper's baseline sizing (§7.1.2): "the minimum cluster size
  /// capable of running all VMs without any preemptions or
  /// admission-controlled rejections" — found by simulation, starting from
  /// the peak-committed lower bound and growing until a full replay shows
  /// zero failures (bin-packing fragmentation can make the lower bound
  /// infeasible).
  [[nodiscard]] static std::size_t minimum_feasible_servers(
      const std::vector<trace::VmRecord>& records, const SimConfig& base_config);

  /// Prefix of the deflatable records whose total committed core-time is at
  /// most `core_hours` (arrival order). Used by the revenue experiment to
  /// scale the admitted low-priority pool with the overcommitment target.
  [[nodiscard]] static std::vector<trace::VmRecord> select_deflatable_subset(
      const std::vector<trace::VmRecord>& records, double core_hours);

  /// Trace horizon (latest record end); the market plan and the cost
  /// accounting bill the fleet over [0, horizon).
  [[nodiscard]] static sim::SimTime horizon_of(
      const std::vector<trace::VmRecord>& records);

 private:
  /// An active VM's slot: its record, moved in at arrival, and the run
  /// state below. A non-deflatable VM's usage series is dropped at
  /// arrival, because only a deflatable VM's samples are ever read.
  struct VmRuntime {
    trace::VmRecord record;
    /// The spec's priority, fixed at arrival (deflatable VMs derive it
    /// from the series' p95, so it is computed once per VM).
    double priority = 1.0;
    bool running = false;
    bool preempted = false;
    bool rejected = false;
    bool deferred = false;  ///< admission deferred it at least once
    bool expired = false;   ///< the deferral window ran out (a rejection)
    sim::SimTime placed_at;
    sim::SimTime finished_at;
    /// (time, cpu allocation fraction) change-points while running;
    /// recorded for deflatable VMs only (finalize reads no other).
    std::vector<std::pair<sim::SimTime, double>> alloc_timeline;
    /// Bumped each time the VM is displaced again (new migration or
    /// suspension); queued cutover events from an earlier displacement
    /// carry the old epoch and are dropped as stale.
    std::uint32_t displacement_epoch = 0;
  };

  /// Shared constructor tail, run once `horizon_` and
  /// `trace_peak_committed_` are set: market plan, manager, admission
  /// controller and the manager callbacks.
  void init_common();

  /// The active VM's runtime state, or nullptr when unknown, not yet
  /// arrived or already released.
  [[nodiscard]] VmRuntime* runtime_of(std::uint64_t id);

  /// Takes a slot for the arriving VM `id` (a recycled one when any is
  /// free) and maps `id` to it. Throws std::runtime_error when `id` is
  /// already active.
  [[nodiscard]] std::uint32_t acquire_slot(std::uint64_t id);
  /// Unmaps the departed VM in `slot`, frees its record and run state
  /// and recycles the slot.
  void release_slot(std::uint32_t slot);
  /// Appends an allocation change-point to a deflatable VM's timeline
  /// (a no-op for the others, whose timelines nothing reads).
  static void note_alloc(VmRuntime& vm, sim::SimTime at, double fraction);

  void on_vm_start(VmRuntime& vm);
  /// Departure: finalizes and removes a running VM, and bills the
  /// non-admission unserved demand of one that never ran to its end.
  void on_vm_end(VmRuntime& vm);
  void finalize(VmRuntime& vm, sim::SimTime at);

  // --- admission plumbing -----------------------------------------------------
  /// Applies an admission decision (fresh or drained from the deferral
  /// queue) to the VM's runtime: start it, remember the deferral, or
  /// reject it (billing an expired deferral's whole demand as unserved).
  void apply_admission(VmRuntime& vm,
                       const cluster::AdmissionDecision& decision);
  /// Charges the full usage series of a VM that never ran (expired
  /// deferral) as lost throughput.
  void charge_never_served(const VmRuntime& vm);

  // --- tick barrier ----------------------------------------------------------
  /// Moves the clock to `at`. When that opens a new tick (`at != now_`),
  /// it first runs the tick barrier: flush_views, then the telemetry
  /// round. Every event source advances the clock through here.
  void advance_clock(sim::SimTime at);
  /// Hands every active server to `config_.telemetry_bus` (no-op when it
  /// is empty). Called at every tick boundary, right after flush_views.
  void publish_utilization();

  // --- timed migration plumbing ---------------------------------------------
  /// Timed revocations are in effect: a deflation-mode market with a
  /// non-instant migration model.
  [[nodiscard]] bool timed_migration() const noexcept;
  /// Books an in-flight migration: allocation moves now, the VM pauses for
  /// the cutover window (pause/resume scheduled as future sim events; the
  /// pause bills downtime when it actually fires).
  void track_migration(const cluster::MigrationRecord& record);
  /// Bills [from, min(until, record end)) as migration downtime.
  void charge_downtime(const VmRuntime& vm, sim::SimTime from,
                       sim::SimTime until);
  /// Charges the usage a killed VM would have served after `at` as lost
  /// throughput (timed mode only: instant-mode kill semantics unchanged).
  void charge_unserved_tail(const VmRuntime& vm, sim::SimTime at);

  // --- event loop -------------------------------------------------------------
  /// The event loop: merges arrivals, departures, plan events, reopt
  /// wakeups, deferral retries and migration cutovers in canonical order.
  void run_events();
  /// Folds the accumulators into the returned metrics.
  [[nodiscard]] SimMetrics build_metrics();

  void handle_warn(std::size_t server, sim::SimTime deadline);
  void handle_revoke(std::size_t server);
  /// One re-optimization window: refit estimators on the realized window,
  /// re-plan, push new ceilings into the live admission controller and
  /// splice the rewritten revocation schedule into plan_queue_'s
  /// not-yet-consumed suffix. Advances next_reopt_.
  void run_reopt();

  SimConfig config_;
  /// The record-vector constructor's trace, sorted by (start, id); the
  /// event loop moves each record out as it arrives. Empty on the stream
  /// path.
  std::vector<trace::VmRecord> records_;
  /// The caller's arrival stream (non-owning); null on the record-vector
  /// path.
  trace::VmArrivalStream* stream_ = nullptr;
  /// Market plan computed before the manager so portfolio pool weights can
  /// shape the cluster partitions. Empty when the market is disabled.
  std::optional<transient::CapacityPlan> plan_;
  /// Flat for shard_count <= 1, sharded otherwise; the simulator only uses
  /// the common interface.
  std::unique_ptr<cluster::ClusterManagerBase> manager_;
  /// Present only in timed-migration mode (references *manager_).
  std::optional<cluster::MigrationEngine> migration_engine_;
  /// Admission stage in front of *manager_ (always present; AdmitAll by
  /// default). Quotes prices off plan_'s market traces.
  std::unique_ptr<cluster::AdmissionController> admission_;
  /// Online control plane (src/control). Present only when
  /// `config_.control.enabled` and a market plan exists; owns the online
  /// estimators and the authoritative revocation timeline once moves have
  /// been scheduled.
  std::unique_ptr<control::FleetController> controller_;
  /// Plan-driven Restore/Warn/Revoke events (control::plan_events). The
  /// event loop consumes this via next_plan_ so a re-optimization can
  /// splice a rewritten future (everything strictly after `now_`) into the
  /// unconsumed suffix. Events already consumed are never touched.
  std::vector<control::PlanEvent> plan_queue_;
  std::size_t next_plan_ = 0;
  /// Next re-optimization wakeup; SimTime::max() = controller inactive
  /// (disabled, reopt_hours = inf, or no further window fits the
  /// horizon).
  sim::SimTime next_reopt_ = sim::SimTime::max();
  /// Suspended (checkpointed-awaiting-destination) VM ids per doomed
  /// server, between a warning and its deadline.
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> suspended_;
  /// Future allocation change-points from in-flight migrations (cutover
  /// pauses/resumes), merged into the event loop as they come due.
  struct AllocEvent {
    sim::SimTime at;
    std::uint64_t vm_id = 0;
    double fraction = 0.0;
    std::uint32_t epoch = 0;  ///< must match the VM's displacement_epoch
    /// Pause events only: scheduled end of the VM-paused window. Downtime
    /// is billed when the pause actually fires (a later displacement can
    /// cancel it), clipped to the VM's lifetime.
    sim::SimTime pause_until;
    [[nodiscard]] bool operator>(const AllocEvent& other) const noexcept {
      if (at != other.at) return at > other.at;
      if (vm_id != other.vm_id) return vm_id > other.vm_id;
      return fraction > other.fraction;
    }
  };
  std::priority_queue<AllocEvent, std::vector<AllocEvent>,
                      std::greater<AllocEvent>>
      pending_allocs_;
  /// Applies a due cutover pause/resume to the VM's allocation timeline
  /// (stale epochs dropped).
  void apply_alloc_event(const AllocEvent& alloc);
  sim::SimTime now_;

  /// Active VMs, one slot each from arrival to departure (ChunkedSlots).
  /// Slots never move, so a reference to one stays valid while later
  /// arrivals grow the slab; a departed VM's slot goes on `free_slots_`
  /// and the next arrival reuses it. Departure events carry their slot;
  /// callbacks, which know a VM by id, find it through `slot_of_`.
  ChunkedSlots<VmRuntime> slots_;
  std::vector<std::uint32_t> free_slots_;
  util::IdIndex slot_of_;
  std::size_t peak_active_ = 0;

  // --- per-run context (read by build_metrics) -------------------------------
  sim::SimTime horizon_;
  res::ResourceVector trace_peak_committed_;
  std::uint64_t vm_count_ = 0;
  std::uint64_t deflatable_count_ = 0;
  /// Non-admission unserved demand, accumulated as VMs are released.
  double unserved_core_hours_ = 0.0;

  // accumulators
  double lost_ = 0.0;
  double used_ = 0.0;
  /// Exact VM-paused migration windows (cutover pauses that actually
  /// fired plus checkpoint suspensions), clipped to each VM's remaining
  /// lifetime (a VM that departs before its cutover never pauses).
  double migration_downtime_hours_ = 0.0;
  double migration_downtime_core_hours_ = 0.0;
  /// Admission-caused unserved demand (expired deferrals in full, plus the
  /// arrival→launch delay of late-admitted ones), billed at the on-demand
  /// rate into the cost report.
  double admission_unserved_core_hours_ = 0.0;
  double admission_delay_hours_ = 0.0;
  double deflation_fraction_time_ = 0.0;  ///< integral of (1 - alloc frac) dt
  double deflatable_time_ = 0.0;          ///< total deflatable running time
  cluster::RevenueTotals revenue_;
  bool ran_ = false;
};

}  // namespace deflate::simcluster
