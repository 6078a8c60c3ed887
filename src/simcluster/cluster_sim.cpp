#include "simcluster/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deflate::simcluster {

namespace {

/// Resolves SimConfig::policies onto the subsystem configs: validated up
/// front (one std::invalid_argument naming every problem), then each
/// named choice is written into the owning subsystem's `*_name` field,
/// which every consumer resolves ahead of the enum alias, and its
/// parameters onto the matching knobs. Placement, shard selection and
/// admission names are read straight off `policies` when the fleet and
/// the admission controller are built.
void apply_policy_set(SimConfig& config) {
  const policy::PolicySet& set = config.policies;
  const std::vector<std::string> errors = set.validate();
  if (!errors.empty()) {
    std::string message = "SimConfig.policies: " + errors.front();
    for (std::size_t i = 1; i < errors.size(); ++i) {
      message += "; " + errors[i];
    }
    throw std::invalid_argument(message);
  }
  if (!set.migration.empty()) {
    config.migration.strategy_name = set.migration.name;
  }
  if (!set.revocation.empty()) {
    const auto apply = [&set](transient::RevocationConfig& rc) {
      rc.model_name = set.revocation.name;
      rc.poisson_rate_per_hour =
          set.revocation.param_or("poisson_rate_per_hour", rc.poisson_rate_per_hour);
      rc.max_lifetime_hours =
          set.revocation.param_or("max_lifetime_hours", rc.max_lifetime_hours);
      rc.early_fraction = set.revocation.param_or("early_fraction", rc.early_fraction);
      rc.early_tau_hours = set.revocation.param_or("early_tau_hours", rc.early_tau_hours);
      rc.late_shape = set.revocation.param_or("late_shape", rc.late_shape);
      rc.bid = set.revocation.param_or("bid", rc.bid);
    };
    apply(config.market.revocation);
    for (transient::MarketDef& market : config.market.markets) {
      apply(market.revocation);
    }
  }
  if (!set.admission.empty()) {
    config.admission.default_ceiling =
        set.admission.param_or("default_ceiling", config.admission.default_ceiling);
    config.admission.max_defer_hours =
        set.admission.param_or("max_defer_hours", config.admission.max_defer_hours);
  }
  if (!set.control.empty()) {
    config.control.forecast = set.control.name;
    config.control.ewma_alpha =
        set.control.param_or("alpha", config.control.ewma_alpha);
  }
}

cluster::ClusterConfig make_cluster_config(
    const SimConfig& config,
    const std::optional<transient::CapacityPlan>& plan) {
  cluster::ClusterConfig out;
  out.server_count = config.server_count;
  out.server_capacity = config.server_capacity;
  out.policy = config.policy;
  out.mode = config.mode;
  out.mechanism = config.mechanism;
  out.placement = config.placement;
  out.placement_name = config.policies.placement.name;
  out.reinflate_on_departure = config.reinflate_on_departure;
  out.partitioned = config.partitioned;
  // Portfolio-driven capacity mixing: the mean-variance weights size the
  // on-demand pool and the deflatable priority pools.
  if (plan && config.market_enabled && config.market.use_portfolio &&
      config.partitioned && !plan->pool_weights.empty()) {
    out.pool_weights = plan->pool_weights;
  }
  return out;
}

std::optional<transient::CapacityPlan> make_plan(sim::SimTime horizon,
                                                 const SimConfig& config) {
  if (!config.market_enabled) return std::nullopt;
  const transient::TransientMarketEngine engine(config.market);
  return engine.plan(config.server_count, horizon, /*deflatable_pools=*/4);
}

std::unique_ptr<cluster::ClusterManagerBase> make_manager(
    const SimConfig& config,
    const std::optional<transient::CapacityPlan>& plan) {
  cluster::ShardedClusterConfig sharded;
  sharded.cluster = make_cluster_config(config, plan);
  sharded.shard_count = config.shard_count;
  sharded.selection = config.shard_selection;
  sharded.selection_name = config.policies.shard_selection.name;
  sharded.routing_seed = config.shard_routing_seed;
  return cluster::make_cluster_manager(std::move(sharded));
}

}  // namespace

sim::SimTime TraceDrivenSimulator::horizon_of(
    const std::vector<trace::VmRecord>& records) {
  sim::SimTime horizon;
  for (const trace::VmRecord& record : records) {
    horizon = std::max(horizon, record.end);
  }
  return horizon;
}

TraceDrivenSimulator::TraceDrivenSimulator(std::vector<trace::VmRecord> records,
                                           SimConfig config)
    : config_(std::move(config)), records_(std::move(records)) {
  // The (start, id) arrival order and the per-VM bookkeeping need unique
  // ids.
  std::vector<std::uint64_t> ids;
  ids.reserve(records_.size());
  for (const trace::VmRecord& record : records_) ids.push_back(record.id);
  std::sort(ids.begin(), ids.end());
  if (const auto dup = std::adjacent_find(ids.begin(), ids.end());
      dup != ids.end()) {
    throw std::invalid_argument("trace replay: duplicate vm id " +
                                std::to_string(*dup) + " in record vector");
  }
  std::sort(records_.begin(), records_.end(),
            [](const trace::VmRecord& a, const trace::VmRecord& b) {
              return a.start != b.start ? a.start < b.start : a.id < b.id;
            });
  horizon_ = horizon_of(records_);
  trace_peak_committed_ = peak_committed(records_);
  init_common();
}

TraceDrivenSimulator::TraceDrivenSimulator(trace::VmArrivalStream& stream,
                                           SimConfig config)
    : config_(std::move(config)), stream_(&stream) {
  horizon_ = stream.horizon();
  trace_peak_committed_ = stream.peak_committed();
  init_common();
}

void TraceDrivenSimulator::init_common() {
  apply_policy_set(config_);
  plan_ = make_plan(horizon_, config_);
  manager_ = make_manager(config_, plan_);
  if (timed_migration()) {
    migration_engine_.emplace(config_.migration, *manager_);
  }

  // Partitioned market: the never-revoked set must be exactly the
  // on-demand pool (pool 0). ClusterPartitions rounds pool sizes (one
  // server per pool + largest remainder) and a sharded fleet scatters
  // pool 0 across the shards, so realign the plan's split with the
  // realized pool-0 server set: the engine re-splits the transient set
  // across its markets by portfolio weight and regenerates every
  // revocation schedule (per-server keyed streams keep this
  // deterministic).
  if (plan_ && config_.partitioned) {
    const std::vector<std::size_t> pool0 = manager_->pool_servers(0);
    std::vector<std::size_t> transient;
    transient.reserve(config_.server_count - pool0.size());
    std::vector<std::uint8_t> on_demand(config_.server_count, 0);
    for (const std::size_t s : pool0) on_demand[s] = 1;
    for (std::size_t s = 0; s < config_.server_count; ++s) {
      if (!on_demand[s]) transient.push_back(s);
    }
    if (transient != plan_->transient_servers) {
      const transient::TransientMarketEngine engine(config_.market);
      engine.rebind_transient_servers(*plan_, pool0.size(),
                                      std::move(transient), horizon_);
    }
  }

  // Mid-run regime shift: stitch the environment change into the plan's
  // price traces and revocation schedules *before* anything downstream
  // (the admission price feed, the plan-event queue, the controller)
  // captures pointers into them. Applied whether or not the controller
  // is enabled, so a static t=0 plan and a rolling re-optimized run face
  // the same realized world.
  if (plan_ && config_.control.regime_shift.active()) {
    control::apply_regime_shift(*plan_, config_.market,
                                config_.control.regime_shift, horizon_);
  }

  // Admission stage: AdmitAll quotes prices but defers nothing; the
  // price-aware policies quote off the plan's market traces (pointers into
  // plan_, which outlives the controller). The policy is the registry
  // name in `policies`, or the one `admission.policy` aliases. A
  // controller built as BidOptimized takes its ceilings from the plan's
  // per-class bid optima when the engine computed them.
  {
    std::vector<const transient::PriceTrace*> traces;
    if (plan_) {
      traces.reserve(plan_->markets.size());
      for (const transient::MarketPlan& market : plan_->markets) {
        traces.push_back(&market.prices);
      }
    }
    const double on_demand_rate =
        config_.market.effective_markets().front().price.on_demand_price;
    cluster::PriceFeed feed(std::move(traces), on_demand_rate);
    admission_ = cluster::make_admission_controller_by_name(
        config_.policies.admission.empty()
            ? cluster::admission_policy_name(config_.admission.policy)
            : config_.policies.admission.name,
        config_.admission, *manager_, std::move(feed));
    if (plan_ && !plan_->class_ceilings.empty() &&
        admission_->config().policy ==
            cluster::AdmissionPolicyKind::BidOptimized) {
      admission_->set_class_ceilings(plan_->class_ceilings);
    }
  }

  // Online control plane: wakes every `control.reopt_hours` of simulated
  // time (Reopt events, canonically ordered after the tick's
  // revocations, before its arrivals). Needs a market plan with at least
  // one market to re-optimize against; with none the controller is
  // simply absent and the run takes the legacy one-shot path.
  if (config_.control.enabled && plan_ && !plan_->markets.empty()) {
    controller_ = std::make_unique<control::FleetController>(
        config_.control, config_.market, *plan_, horizon_, timed_migration());
    if (config_.control.reopt_active()) {
      const sim::SimTime window =
          sim::SimTime::from_hours(config_.control.reopt_hours);
      // A window that rounds to zero microseconds would re-optimize
      // forever at t=0; treat it as inactive, like reopt_hours <= 0.
      if (window > sim::SimTime{} && window < horizon_) next_reopt_ = window;
    }
  }

  // Track allocation changes (deflation *and* reinflation) per VM.
  manager_->subscribe_deflation([this](const hv::Vm& vm,
                                      const res::ResourceVector& /*old_alloc*/,
                                      const res::ResourceVector& new_alloc) {
    VmRuntime* rt = runtime_of(vm.spec().id);
    if (rt == nullptr || !rt->running) return;
    const double spec_cores = static_cast<double>(vm.spec().vcpus);
    const double fraction =
        spec_cores > 0.0 ? new_alloc[res::Resource::Cpu] / spec_cores : 1.0;
    note_alloc(*rt, now_, fraction);
  });

  manager_->subscribe_preemption(
      [this](const hv::VmSpec& spec, std::uint64_t /*host*/) {
        VmRuntime* rt = runtime_of(spec.id);
        if (rt == nullptr || !rt->running) return;
        rt->preempted = true;
        finalize(*rt, now_);
      });

  // Migrations keep running through a revocation, possibly at a deflated
  // launch fraction on the new server; extend the allocation timeline.
  manager_->subscribe_migration([this](const hv::VmSpec& spec,
                                      std::uint64_t /*from*/,
                                      std::uint64_t /*to*/, double fraction) {
    VmRuntime* rt = runtime_of(spec.id);
    if (rt == nullptr || !rt->running) return;
    note_alloc(*rt, now_, fraction);
  });
}

TraceDrivenSimulator::VmRuntime* TraceDrivenSimulator::runtime_of(
    std::uint64_t id) {
  const std::uint32_t slot = slot_of_.find(id);
  return slot == util::IdIndex::kNone ? nullptr : &slots_[slot];
}

std::uint32_t TraceDrivenSimulator::acquire_slot(std::uint64_t id) {
  const bool recycled = !free_slots_.empty();
  const std::uint32_t slot = recycled ? free_slots_.back() : slots_.size();
  if (!slot_of_.insert(id, slot)) {
    throw std::runtime_error("trace replay: duplicate vm id " +
                             std::to_string(id) + " in arrival stream");
  }
  if (recycled) {
    free_slots_.pop_back();
  } else {
    slots_.grow();
  }
  peak_active_ = std::max(peak_active_, slot_of_.size());
  return slot;
}

void TraceDrivenSimulator::release_slot(std::uint32_t slot) {
  slot_of_.erase(slots_[slot].record.id);
  slots_[slot] = VmRuntime{};
  free_slots_.push_back(slot);
}

void TraceDrivenSimulator::note_alloc(VmRuntime& vm, sim::SimTime at,
                                      double fraction) {
  if (vm.record.deflatable()) vm.alloc_timeline.emplace_back(at, fraction);
}

bool TraceDrivenSimulator::timed_migration() const noexcept {
  return config_.market_enabled &&
         config_.mode == cluster::ReclamationMode::Deflation &&
         config_.migration.model.bandwidth_mib_per_sec > 0.0;
}

void TraceDrivenSimulator::charge_downtime(const VmRuntime& vm,
                                           sim::SimTime from,
                                           sim::SimTime until) {
  const sim::SimTime end = std::min(until, vm.record.end);
  if (end <= from) return;
  const double hours = (end - from).hours();
  migration_downtime_hours_ += hours;
  migration_downtime_core_hours_ +=
      hours * static_cast<double>(vm.record.vcpus);
}

void TraceDrivenSimulator::track_migration(
    const cluster::MigrationRecord& record) {
  VmRuntime* rt = runtime_of(record.spec.id);
  if (rt == nullptr || !rt->running) return;
  // A fresh displacement supersedes any still-queued cutover events from
  // an earlier one (e.g. the destination server is revoked mid-transfer).
  const std::uint32_t epoch = ++rt->displacement_epoch;
  // The VM's allocation moves to the destination at stream start (the
  // placement may have deflated it); it pauses for the cutover window and
  // resumes at its destination fraction when the transfer lands. Downtime
  // is billed by the pause event, when the pause is known to happen.
  note_alloc(*rt, record.start, record.launch_fraction);
  pending_allocs_.push({record.cutover_begin, record.spec.id, 0.0, epoch,
                        record.cutover_end});
  pending_allocs_.push(
      {record.cutover_end, record.spec.id, record.launch_fraction, epoch, {}});
}

void TraceDrivenSimulator::charge_unserved_tail(const VmRuntime& vm,
                                                sim::SimTime at) {
  // finalize() integrates usage for deflatable VMs only; keep the two
  // populations consistent or throughput_loss mixes denominators.
  if (!vm.record.deflatable()) return;
  const trace::VmRecord& record = vm.record;
  const auto& samples = record.cpu.samples();
  const std::int64_t interval_us = record.cpu.interval().micros();
  const auto served = static_cast<std::size_t>(std::min<std::int64_t>(
      static_cast<std::int64_t>(samples.size()),
      (at - vm.placed_at).micros() / std::max<std::int64_t>(1, interval_us)));
  for (std::size_t i = served; i < samples.size(); ++i) {
    used_ += samples[i];
    lost_ += samples[i];
  }
}

void TraceDrivenSimulator::charge_never_served(const VmRuntime& vm) {
  // Mirror of charge_unserved_tail for a VM that never launched: the whole
  // series is demand the fleet failed to serve. Deflatable only, to keep
  // the throughput denominators consistent (see charge_unserved_tail).
  if (!vm.record.deflatable()) return;
  for (const double sample : vm.record.cpu.samples()) {
    used_ += sample;
    lost_ += sample;
  }
}

void TraceDrivenSimulator::apply_admission(
    VmRuntime& vm, const cluster::AdmissionDecision& decision) {
  if (decision.admitted()) {
    vm.running = true;
    vm.placed_at = now_;
    vm.alloc_timeline.clear();
    note_alloc(vm, now_, decision.placement.launch_fraction);
    if (vm.deferred) {
      // The arrival→launch window went unserved: bill it as replacement
      // capacity. (The displaced tail samples are charged to throughput
      // loss when the VM finalizes.)
      const double delay_hours = (now_ - vm.record.start).hours();
      admission_delay_hours_ += delay_hours;
      admission_unserved_core_hours_ +=
          delay_hours * static_cast<double>(vm.record.vcpus);
    }
    return;
  }
  if (decision.status == cluster::AdmissionDecision::Status::Deferred) {
    vm.deferred = true;  // queued inside the controller; a drain resolves it
    return;
  }
  vm.rejected = true;
  if (decision.reason == cluster::AdmissionDecision::Reason::DeadlineExpired) {
    vm.expired = true;
    charge_never_served(vm);
    admission_unserved_core_hours_ +=
        static_cast<double>(vm.record.vcpus) * vm.record.lifetime().hours();
  }
}

void TraceDrivenSimulator::on_vm_start(VmRuntime& vm) {
  const hv::VmSpec spec = vm.record.to_spec();
  vm.priority = spec.priority;
  cluster::AdmissionRequest request =
      cluster::AdmissionRequest::from_spec(spec, now_);
  // A VM admitted at (or after) its departure would never be removed:
  // clamp the deferral window strictly inside the record's lifetime, so
  // expiry always resolves before the (already ignored) VmEnd event.
  const sim::SimTime latest =
      vm.record.end - sim::SimTime::from_micros(1);
  const sim::SimTime window =
      now_ + sim::SimTime::from_hours(
                 std::max(0.0, admission_->config().max_defer_hours));
  request.deadline = std::max(now_, std::min(window, latest));
  apply_admission(vm, admission_->decide(request, now_));
}

void TraceDrivenSimulator::finalize(VmRuntime& vm, sim::SimTime at) {
  vm.running = false;
  vm.finished_at = at;
  const trace::VmRecord& record = vm.record;
  const double cores = static_cast<double>(record.vcpus);
  const double hours = (at - vm.placed_at).hours();
  if (hours <= 0.0) return;

  if (!record.deflatable()) {
    revenue_.od_committed_core_hours += cores * hours;
    return;
  }

  // In-flight migration cutovers can interleave with deflation events out
  // of order when a VM is displaced twice in quick succession; the
  // integrations below assume a time-sorted step function. A sorted
  // timeline (nearly every one) is left as it is, which is what the
  // stable sort would leave, without its merge buffer.
  const auto by_time = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(vm.alloc_timeline.begin(), vm.alloc_timeline.end(),
                      by_time)) {
    std::stable_sort(vm.alloc_timeline.begin(), vm.alloc_timeline.end(),
                     by_time);
  }

  // --- revenue integrals ---
  revenue_.df_committed_core_hours += cores * hours;
  revenue_.df_priority_committed_core_hours +=
      vm.priority * cores * hours;
  double allocated_core_hours = 0.0;
  for (std::size_t k = 0; k < vm.alloc_timeline.size(); ++k) {
    const sim::SimTime seg_start = vm.alloc_timeline[k].first;
    const sim::SimTime seg_end =
        k + 1 < vm.alloc_timeline.size() ? vm.alloc_timeline[k + 1].first : at;
    const double seg_hours = (seg_end - seg_start).hours();
    if (seg_hours <= 0.0) continue;
    allocated_core_hours += vm.alloc_timeline[k].second * cores * seg_hours;
    deflation_fraction_time_ +=
        (1.0 - vm.alloc_timeline[k].second) * seg_hours;
  }
  revenue_.df_allocated_core_hours += allocated_core_hours;
  deflatable_time_ += hours;

  // --- throughput loss (Fig. 4 / Fig. 21) ---
  // Align the allocation step-function with the VM's 5-minute usage series.
  const auto& samples = record.cpu.samples();
  const std::int64_t interval_us = record.cpu.interval().micros();
  const auto ran_intervals = static_cast<std::size_t>(std::min<std::int64_t>(
      static_cast<std::int64_t>(samples.size()),
      (at - vm.placed_at).micros() / std::max<std::int64_t>(1, interval_us)));
  std::size_t seg = 0;
  for (std::size_t i = 0; i < ran_intervals; ++i) {
    const sim::SimTime t =
        vm.placed_at + sim::SimTime::from_micros(
                           static_cast<std::int64_t>(i) * interval_us);
    while (seg + 1 < vm.alloc_timeline.size() &&
           vm.alloc_timeline[seg + 1].first <= t) {
      ++seg;
    }
    const double alloc = vm.alloc_timeline[seg].second;
    const double usage = samples[i];
    used_ += usage;
    lost_ += std::max(0.0, usage - alloc);
  }
}

void TraceDrivenSimulator::on_vm_end(VmRuntime& vm) {
  if (vm.running) {
    const bool launched_late = vm.deferred;
    finalize(vm, now_);
    if (launched_late) {
      // finalize() integrated the samples the late launch actually served;
      // the displaced tail is demand the deferral pushed past the VM's
      // departure — lost throughput.
      charge_unserved_tail(vm, now_);
    }
    manager_->remove_vm(vm.record.id);
  }
  // Non-admission unserved demand, in committed core-hours: capacity
  // rejections in full, preempted/killed VMs from their eviction onwards.
  // (Admission-caused unserved demand is billed into the cost report.)
  const double cores = static_cast<double>(vm.record.vcpus);
  if (vm.rejected && !vm.expired) {
    unserved_core_hours_ += cores * vm.record.lifetime().hours();
  } else if (vm.preempted) {
    unserved_core_hours_ +=
        cores * std::max(0.0, (vm.record.end - vm.finished_at).hours());
  }
}

void TraceDrivenSimulator::advance_clock(sim::SimTime at) {
  if (at == now_) return;
  // Batched view maintenance: dirty views/aggregates accumulated by the
  // events of one simulated tick are flushed once at the tick boundary
  // instead of once per event (placement stays exact either way). The
  // telemetry observer sees every active server on the same cadence, in
  // the freshly flushed state.
  manager_->flush_views();
  publish_utilization();
  now_ = at;
}

void TraceDrivenSimulator::publish_utilization() {
  if (!config_.telemetry_bus) return;
  for (std::size_t s = 0; s < manager_->server_count(); ++s) {
    if (manager_->server_active(s)) config_.telemetry_bus(s, manager_->host(s));
  }
}

void TraceDrivenSimulator::handle_warn(std::size_t server,
                                       sim::SimTime deadline) {
  const cluster::WarningResult warned =
      migration_engine_->begin_warning(server, now_, deadline);
  for (const cluster::MigrationRecord& record : warned.started) {
    track_migration(record);
  }
  for (const hv::VmSpec& spec : warned.suspended) {
    VmRuntime* rt = runtime_of(spec.id);
    if (rt != nullptr && rt->running) {
      // Checkpointed: paused from now until the deadline resolves
      // it (restore or kill); supersedes queued cutovers. The
      // suspension pause is certain, so it bills immediately.
      ++rt->displacement_epoch;
      note_alloc(*rt, now_, 0.0);
      charge_downtime(*rt, now_, deadline);
    }
    suspended_[server].push_back(spec.id);
  }
}

void TraceDrivenSimulator::handle_revoke(std::size_t server) {
  if (!timed_migration()) {
    manager_->revoke_server(server);
    return;
  }
  // Present the still-alive suspended VMs (checkpointed at the warning
  // for lack of a destination) for one last placement attempt.
  std::vector<hv::VmSpec> suspended;
  if (const auto it = suspended_.find(server); it != suspended_.end()) {
    for (const std::uint64_t id : it->second) {
      VmRuntime* rt = runtime_of(id);
      if (rt != nullptr && rt->running) {
        suspended.push_back(rt->record.to_spec());
      }
    }
    suspended_.erase(it);
  }
  const cluster::RevocationFinish finish =
      migration_engine_->finish_revocation(server, now_, suspended);
  for (const cluster::MigrationRecord& record : finish.restored) {
    track_migration(record);
  }
  for (const hv::VmSpec& spec : finish.killed) {
    VmRuntime* rt = runtime_of(spec.id);
    if (rt == nullptr || !rt->running) continue;
    rt->preempted = true;
    charge_unserved_tail(*rt, now_);
    finalize(*rt, now_);
  }
}

void TraceDrivenSimulator::run_reopt() {
  const control::ReoptResult result = controller_->reoptimize(now_);
  if (result.ceilings_updated) {
    // The Reopt event sits on a tick barrier (views were flushed before
    // dispatch) and ranks ahead of same-instant retries and arrivals, so
    // every request from this tick on sees the re-optimized table.
    admission_->set_class_ceilings(result.class_ceilings);
  }
  if (result.schedule_rewritten) {
    // Replace the unconsumed plan-event suffix with the controller's
    // rewritten future. Everything at or before now_ has already been
    // consumed (future_events are strictly after now_), so the splice
    // never revises history.
    plan_queue_.resize(next_plan_);
    plan_queue_.insert(plan_queue_.end(), result.future_events.begin(),
                       result.future_events.end());
  }
  next_reopt_ += sim::SimTime::from_hours(config_.control.reopt_hours);
  if (next_reopt_ >= horizon_) next_reopt_ = sim::SimTime::max();
}

void TraceDrivenSimulator::apply_alloc_event(const AllocEvent& alloc) {
  advance_clock(std::max(now_, alloc.at));
  VmRuntime* rt = runtime_of(alloc.vm_id);
  if (rt != nullptr && rt->running &&
      rt->displacement_epoch == alloc.epoch) {
    note_alloc(*rt, alloc.at, alloc.fraction);
    // A pause that actually fired bills its window (a superseded one
    // was dropped by the epoch guard above and costs nothing).
    charge_downtime(*rt, alloc.at, alloc.pause_until);
  }
}

SimMetrics TraceDrivenSimulator::run() {
  if (ran_) {
    throw std::logic_error("TraceDrivenSimulator::run is single-shot");
  }
  ran_ = true;
  run_events();
  return build_metrics();
}

void TraceDrivenSimulator::run_events() {
  // Static events come from four ordered sources merged on the fly:
  //   * the plan's Restore/Warn/Revoke schedule (the spliceable member
  //     queue — a re-optimization may rewrite its unconsumed suffix),
  //   * departures of VMs admitted so far (a min-heap fed at arrival),
  //   * the arrival stream itself (one-record lookahead),
  //   * the controller's next re-optimization wakeup.
  // Ranks at equal timestamps: departures free capacity, restores add
  // it, warnings start migrations before the tick's final loss,
  // revocations shrink the fleet, the controller re-plans on the
  // post-revocation fleet, then arrivals are admitted. Each source yields
  // its own events in (at, id) order, so ordering candidates by
  // (at, rank) gives the canonical (at, rank, id) order.
  if (plan_) {
    const control::RegimeShiftConfig& shift = config_.control.regime_shift;
    std::vector<double> warning_hours;
    std::vector<double> shifted_warning_hours;
    if (timed_migration()) {
      warning_hours =
          control::warning_hours(config_.market.effective_markets());
      shifted_warning_hours =
          control::warning_hours(shift.after.effective_markets());
    }
    // Strictly after -1 us: every event, t=0 included.
    plan_queue_ = control::plan_events(
        control::server_timelines(*plan_), warning_hours,
        sim::SimTime::from_micros(-1), shift.starts_at(horizon_),
        shifted_warning_hours);
  }

  // A departure carries its VM's slot; it orders by (at, id) alone.
  struct EndEvent {
    sim::SimTime at;
    std::uint64_t id;
    std::uint32_t slot;
    [[nodiscard]] bool operator>(const EndEvent& other) const noexcept {
      if (at != other.at) return at > other.at;
      return id > other.id;
    }
  };
  std::priority_queue<EndEvent, std::vector<EndEvent>, std::greater<EndEvent>>
      ends;

  // One-record arrival lookahead: the next record, taken out of the
  // sorted trace or pulled from the stream, waits here until its arrival
  // moves it into its VM's slot.
  std::size_t next_index = 0;
  const auto advance = [&]() -> std::optional<trace::VmRecord> {
    if (stream_ != nullptr) return stream_->next();
    if (next_index == records_.size()) return std::nullopt;
    return std::move(records_[next_index++]);
  };
  std::optional<trace::VmRecord> next_arrival = advance();

  constexpr int kSourceEnd = 0, kSourcePlan = 1, kSourceArrival = 2,
                kSourceReopt = 3;
  // A plan event ranks kPlanRank + its Kind (Restore < Warn < Revoke).
  constexpr int kEndRank = 0, kPlanRank = 1, kReoptRank = 4,
                kArrivalRank = 5;

  while (true) {
    // Pick the earliest static event by (at, kind rank).
    int source = -1;
    sim::SimTime at;
    int rank = 0;
    const auto consider = [&](sim::SimTime t, int k, int s) {
      if (source < 0 || t < at || (t == at && k < rank)) {
        at = t;
        rank = k;
        source = s;
      }
    };
    if (!ends.empty()) {
      consider(ends.top().at, kEndRank, kSourceEnd);
    }
    if (next_plan_ < plan_queue_.size()) {
      consider(plan_queue_[next_plan_].at,
               kPlanRank + static_cast<int>(plan_queue_[next_plan_].kind),
               kSourcePlan);
    }
    if (next_arrival) {
      consider(next_arrival->start, kArrivalRank, kSourceArrival);
    }
    if (next_reopt_ != sim::SimTime::max()) {
      consider(next_reopt_, kReoptRank, kSourceReopt);
    }
    if (source < 0 && pending_allocs_.empty() && !admission_->next_retry()) {
      break;
    }

    const sim::SimTime next_static = source >= 0 ? at : sim::SimTime::max();
    const bool retry_before_static = source < 0 || rank == kArrivalRank;
    if (const auto retry = admission_->next_retry();
        retry &&
        (*retry < next_static ||
         (*retry == next_static && retry_before_static)) &&
        (pending_allocs_.empty() || *retry <= pending_allocs_.top().at)) {
      advance_clock(std::max(now_, *retry));
      for (const cluster::AdmissionController::Resolved& resolved :
           admission_->drain(now_)) {
        if (VmRuntime* rt = runtime_of(resolved.request.spec.id)) {
          apply_admission(*rt, resolved.decision);
        }
      }
      continue;
    }
    if (!pending_allocs_.empty() &&
        (source < 0 || pending_allocs_.top().at <= next_static)) {
      const AllocEvent alloc = pending_allocs_.top();
      pending_allocs_.pop();
      apply_alloc_event(alloc);
      continue;
    }

    advance_clock(at);
    switch (source) {
      case kSourceEnd: {
        const std::uint32_t slot = ends.top().slot;
        ends.pop();
        on_vm_end(slots_[slot]);
        release_slot(slot);
        break;
      }
      case kSourcePlan: {
        const control::PlanEvent& event = plan_queue_[next_plan_++];
        switch (event.kind) {
          case control::PlanEvent::Kind::Warn:
            handle_warn(event.server, event.deadline);
            break;
          case control::PlanEvent::Kind::Revoke:
            handle_revoke(event.server);
            break;
          case control::PlanEvent::Kind::Restore:
            manager_->restore_server(event.server);
            break;
        }
        break;
      }
      case kSourceArrival: {
        const std::uint32_t slot = acquire_slot(next_arrival->id);
        VmRuntime& rt = slots_[slot];
        rt.record = std::move(*next_arrival);
        next_arrival = advance();
        // Only a deflatable VM's samples are read (its p95 at arrival,
        // its throughput integrals at release); drop the others now.
        if (rt.record.deflatable()) {
          ++deflatable_count_;
        } else {
          rt.record.cpu = trace::UtilizationSeries{};
        }
        ++vm_count_;
        ends.push({rt.record.end, rt.record.id, slot});
        on_vm_start(rt);
        break;
      }
      case kSourceReopt: run_reopt(); break;
      default: break;
    }
  }

  // The loop can only exit with `ends` empty (a pending departure keeps a
  // static source alive), so every VM has been released.
}

SimMetrics TraceDrivenSimulator::build_metrics() {
  SimMetrics metrics;
  // The admission controller folds its deferral breakdown into the
  // manager's counters (expired deferrals count as rejections).
  const cluster::ClusterStats stats = admission_->cluster_stats();
  metrics.admission_deferrals = stats.admission_deferrals;
  metrics.admission_expired = stats.admission_expired;
  metrics.admission_retries = admission_->stats().retries;
  metrics.admission_delay_hours = admission_delay_hours_;
  metrics.reclamation_attempts = stats.reclamation_attempts;
  metrics.reclamation_failures = stats.reclamation_failures;
  metrics.preemptions = stats.preemptions;
  metrics.rejections = stats.rejections;
  metrics.failure_rate_per_attempt =
      stats.reclamation_attempts > 0
          ? static_cast<double>(stats.reclamation_failures) /
                static_cast<double>(stats.reclamation_attempts)
          : 0.0;

  metrics.vm_count = vm_count_;
  metrics.deflatable_count = deflatable_count_;
  metrics.unserved_core_hours = unserved_core_hours_;
  metrics.failure_probability =
      metrics.deflatable_count > 0
          ? static_cast<double>(stats.reclamation_failures) /
                static_cast<double>(metrics.deflatable_count)
          : 0.0;
  metrics.preemption_probability =
      metrics.deflatable_count > 0
          ? static_cast<double>(stats.preemptions) /
                static_cast<double>(metrics.deflatable_count)
          : 0.0;

  metrics.throughput_loss = used_ > 0.0 ? lost_ / used_ : 0.0;
  metrics.revenue = revenue_;

  metrics.revocations = stats.revocations;
  metrics.revocation_migrations = stats.revocation_migrations;
  metrics.revocation_kills = stats.revocation_kills;
  if (migration_engine_) {
    // Timed displacement ran outside the manager; fold it into the
    // headline counters so instant and timed runs read the same way.
    const cluster::MigrationEngineStats& mig = migration_engine_->stats();
    metrics.live_migrations = mig.live_migrations;
    metrics.checkpoint_restores = mig.checkpoint_restores;
    metrics.checkpoint_kills = mig.checkpoint_kills;
    metrics.migration_downtime_hours = migration_downtime_hours_;
    metrics.revocation_migrations +=
        mig.live_migrations + mig.checkpoint_restores;
    metrics.revocation_kills += mig.checkpoint_kills;
    metrics.preemptions += mig.checkpoint_kills;
    // Keep the derived probability consistent with the folded count.
    metrics.preemption_probability =
        metrics.deflatable_count > 0
            ? static_cast<double>(metrics.preemptions) /
                  static_cast<double>(metrics.deflatable_count)
            : 0.0;
  }
  if (plan_ && config_.server_count > 0) {
    metrics.transient_server_share =
        static_cast<double>(plan_->transient_servers.size()) /
        static_cast<double>(config_.server_count);
    metrics.portfolio_expected_cost = plan_->portfolio.expected_cost;
    const transient::TransientMarketEngine engine(config_.market);
    // The controller's segment-aware bill replaces the engine's only
    // when servers actually moved markets; zero-move controlled runs
    // stay bit-identical to the one-shot report.
    metrics.cost =
        controller_ && controller_->total_moves() > 0
            ? controller_->cost_report(
                  config_.server_capacity[res::Resource::Cpu], horizon_)
            : engine.cost_report(
                  *plan_, config_.server_capacity[res::Resource::Cpu],
                  horizon_);
    const double on_demand_rate =
        config_.market.effective_markets().front().price.on_demand_price;
    if (migration_engine_) {
      // Migration downtime is lost serving capacity: bill it at the
      // on-demand rate on top of the fleet bill.
      metrics.cost.migration_downtime_core_hours =
          migration_downtime_core_hours_;
      metrics.cost.migration_downtime_cost =
          migration_downtime_core_hours_ * on_demand_rate;
    }
    // Admission-caused unserved demand: replacement capacity bought at
    // the sticker rate for the work the deferral queue turned away.
    metrics.cost.admission_unserved_core_hours =
        admission_unserved_core_hours_;
    metrics.cost.admission_unserved_cost =
        admission_unserved_core_hours_ * on_demand_rate;
  }
  if (controller_) {
    metrics.control_reopts = controller_->reopts();
    metrics.control_moves = controller_->total_moves();
  }
  metrics.mean_cpu_deflation =
      deflatable_time_ > 0.0 ? deflation_fraction_time_ / deflatable_time_ : 0.0;

  const res::ResourceVector capacity = manager_->total_capacity();
  double oc = 0.0;
  for (const res::Resource r : {res::Resource::Cpu, res::Resource::Memory}) {
    if (capacity[r] > 0.0) {
      oc = std::max(oc, trace_peak_committed_[r] / capacity[r] - 1.0);
    }
  }
  metrics.achieved_overcommit = oc;
  return metrics;
}

res::ResourceVector TraceDrivenSimulator::peak_committed(
    const std::vector<trace::VmRecord>& records) {
  std::vector<trace::ArrivalStub> stubs;
  stubs.reserve(records.size());
  for (const trace::VmRecord& record : records) stubs.push_back(record.stub());
  return trace::peak_committed(std::move(stubs));
}

std::size_t TraceDrivenSimulator::servers_for_overcommit(
    const std::vector<trace::VmRecord>& records,
    const res::ResourceVector& server_capacity, double overcommit) {
  return trace::servers_for_overcommit(peak_committed(records),
                                       server_capacity, overcommit);
}

std::size_t TraceDrivenSimulator::minimum_feasible_servers(
    const std::vector<trace::VmRecord>& records, const SimConfig& base_config) {
  std::size_t servers =
      servers_for_overcommit(records, base_config.server_capacity, 0.0);
  const std::size_t limit = servers * 2 + 8;  // fragmentation bound
  for (; servers < limit; ++servers) {
    SimConfig config = base_config;
    config.server_count = servers;
    TraceDrivenSimulator simulator(records, config);
    const SimMetrics metrics = simulator.run();
    if (metrics.reclamation_failures == 0 && metrics.rejections == 0 &&
        metrics.preemptions == 0) {
      return servers;
    }
  }
  return limit;
}

std::vector<trace::VmRecord> TraceDrivenSimulator::select_deflatable_subset(
    const std::vector<trace::VmRecord>& records, double core_hours) {
  std::vector<trace::VmRecord> out;
  double budget = core_hours;
  for (const trace::VmRecord& record : records) {
    if (!record.deflatable()) {
      out.push_back(record);
      continue;
    }
    const double cost =
        static_cast<double>(record.vcpus) * record.lifetime().hours();
    if (cost <= budget) {
      budget -= cost;
      out.push_back(record);
    }
  }
  return out;
}

}  // namespace deflate::simcluster
