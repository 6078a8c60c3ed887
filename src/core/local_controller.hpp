// Per-server local deflation controller (§6, "local controllers ... control
// the deflation of VMs by responding to resource pressure, by implementing
// the proportional deflation policies described in section 5").
//
// The controller is the glue between a deflation *policy* (how much each VM
// gives up) and a deflation *mechanism* (how the hypervisor takes it). It
// acts on one server's hv::Host, which it does not own: the policy's
// per-VM targets are handed to the mechanism with the resident hv::Vm
// itself, in the host's arrival order. It also emits notifications so application managers / load balancers can
// react (Fig. 1's "Deflate VM Notification" arrow) — the deflation-aware
// HAProxy model in src/workloads subscribes to these.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "hypervisor/host.hpp"
#include "mechanisms/mechanism.hpp"

namespace deflate::core {

struct ReclaimOutcome {
  bool success = false;
  /// Resources actually reclaimed by deflation (excludes pre-existing free
  /// capacity).
  res::ResourceVector reclaimed;
  int vms_deflated = 0;
};

class LocalDeflationController {
 public:
  using DeflationEvent =
      std::function<void(const hv::Vm&, const res::ResourceVector& old_alloc,
                         const res::ResourceVector& new_alloc)>;

  LocalDeflationController(hv::Host& host,
                           std::shared_ptr<const DeflationPolicy> policy,
                           std::shared_ptr<mech::DeflationMechanism> mechanism);

  /// Tries to make `demand` resources available on the server, deflating
  /// resident deflatable VMs if free capacity is insufficient. The check is
  /// atomic: if the policy cannot cover the shortfall on any dimension,
  /// nothing is deflated and the outcome reports failure (the placement
  /// layer then rejects the VM, §6 step 2).
  ReclaimOutcome make_room_for(const res::ResourceVector& demand);

  /// Reinflates deflated VMs into whatever capacity is now free
  /// (§5.1.3 Reinflation: the policy runs backwards with R = -R_free).
  /// Returns the amount handed back.
  res::ResourceVector redistribute_free();

  /// Total resources reclaimable from this server under the configured
  /// policy (the paper's `deflatable_j` term, respecting policy minimums).
  [[nodiscard]] res::ResourceVector reclaimable_headroom() const;

  /// Directly drives one VM to a target allocation through the configured
  /// mechanism (used for deflated launches, §5.1.1) and notifies observers.
  void apply_allocation(hv::Vm& vm, const res::ResourceVector& target);

  void subscribe(DeflationEvent callback) {
    callbacks_.push_back(std::move(callback));
  }

  [[nodiscard]] const DeflationPolicy& policy() const noexcept { return *policy_; }

 private:
  struct Plan {
    bool success = false;
    std::vector<hv::Vm*> vms;
    std::vector<res::ResourceVector> targets;
  };

  /// Builds per-VM allocation targets that free `need` (all dimensions).
  Plan plan_reclaim(const res::ResourceVector& need) const;
  void apply_plan(const Plan& plan, ReclaimOutcome& outcome);
  void notify(const hv::Vm& vm, const res::ResourceVector& old_alloc,
              const res::ResourceVector& new_alloc) const;

  hv::Host& host_;
  std::shared_ptr<const DeflationPolicy> policy_;
  std::shared_ptr<mech::DeflationMechanism> mechanism_;
  std::vector<DeflationEvent> callbacks_;
};

}  // namespace deflate::core
