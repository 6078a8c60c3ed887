#include "core/local_controller.hpp"

#include <algorithm>
#include <utility>

namespace deflate::core {

namespace {

/// One resident's inputs to the policy, read once per VM rather than once
/// per resource.
struct ShareBasis {
  std::uint64_t id = 0;
  double priority = 0.0;
  res::ResourceVector spec;
  res::ResourceVector floor;
  res::ResourceVector current;  ///< effective allocation
};

ShareBasis share_basis(const hv::Vm& vm) {
  return {vm.spec().id, vm.spec().priority, vm.spec().vector(),
          vm.allocation_floor(), vm.effective_allocation()};
}

VmShare share_of(const ShareBasis& basis, res::Resource r) {
  VmShare share;
  share.id = basis.id;
  share.max_alloc = basis.spec[r];
  share.min_alloc = basis.floor[r];
  share.priority = basis.priority;
  share.current = basis.current[r];
  return share;
}

std::vector<VmShare> shares_of(const std::vector<ShareBasis>& residents,
                               res::Resource r) {
  std::vector<VmShare> shares;
  shares.reserve(residents.size());
  for (const ShareBasis& basis : residents) {
    shares.push_back(share_of(basis, r));
  }
  return shares;
}

}  // namespace

LocalDeflationController::LocalDeflationController(
    hv::Host& host, std::shared_ptr<const DeflationPolicy> policy,
    std::shared_ptr<mech::DeflationMechanism> mechanism)
    : host_(host),
      policy_(std::move(policy)),
      mechanism_(std::move(mechanism)) {}

LocalDeflationController::Plan LocalDeflationController::plan_reclaim(
    const res::ResourceVector& need) const {
  Plan plan;
  std::vector<ShareBasis> deflatable;
  for (hv::Vm* vm : host_.vms()) {
    if (!vm->spec().deflatable) continue;
    deflatable.push_back(share_basis(*vm));
    plan.vms.push_back(vm);
    plan.targets.push_back(deflatable.back().current);
  }

  plan.success = true;
  for (const res::Resource r : res::all_resources) {
    if (need[r] <= 1e-9) continue;
    if (deflatable.empty()) {
      plan.success = false;
      break;
    }
    const PolicyResult result =
        policy_->reclaim(shares_of(deflatable, r), need[r]);
    if (!result.success) {
      plan.success = false;
      break;
    }
    for (std::size_t i = 0; i < deflatable.size(); ++i) {
      plan.targets[i][r] = result.targets[i];
    }
  }
  return plan;
}

res::ResourceVector LocalDeflationController::reclaimable_headroom() const {
  res::ResourceVector headroom;
  for (const hv::Vm* vm : host_.vms()) {
    if (!vm->spec().deflatable) continue;
    const ShareBasis basis = share_basis(*vm);
    for (const res::Resource r : res::all_resources) {
      headroom[r] += std::max(
          0.0, basis.current[r] - policy_->min_retained(share_of(basis, r)));
    }
  }
  return headroom;
}

void LocalDeflationController::apply_plan(const Plan& plan,
                                          ReclaimOutcome& outcome) {
  for (std::size_t i = 0; i < plan.vms.size(); ++i) {
    hv::Vm& vm = *plan.vms[i];
    const res::ResourceVector before = vm.effective_allocation();
    if ((before - plan.targets[i]).is_zero()) continue;
    mechanism_->apply(vm, plan.targets[i]);
    const res::ResourceVector after = vm.effective_allocation();
    outcome.reclaimed += (before - after).clamped_nonneg();
    ++outcome.vms_deflated;
    notify(vm, before, after);
  }
}

ReclaimOutcome LocalDeflationController::make_room_for(
    const res::ResourceVector& demand) {
  ReclaimOutcome outcome;
  const res::ResourceVector need =
      (demand - host_.available()).clamped_nonneg();
  if (need.is_zero()) {
    outcome.success = true;
    return outcome;
  }

  Plan plan = plan_reclaim(need);
  if (!plan.success) {
    outcome.success = false;
    return outcome;
  }
  apply_plan(plan, outcome);
  // Deflation mechanisms are coarse in places (hotplug rounds up); verify
  // the demand actually fits now.
  outcome.success = demand.all_leq(host_.available(), 1e-6);
  return outcome;
}

res::ResourceVector LocalDeflationController::redistribute_free() {
  const res::ResourceVector free = host_.available();
  if (free.is_zero()) return {};

  std::vector<hv::Vm*> deflated;
  std::vector<ShareBasis> bases;
  std::vector<res::ResourceVector> targets;
  for (hv::Vm* vm : host_.vms()) {
    if (!vm->spec().deflatable) continue;
    if (vm->max_deflation_fraction() > 1e-9) {
      deflated.push_back(vm);
      bases.push_back(share_basis(*vm));
      targets.push_back(bases.back().current);
    }
  }
  if (deflated.empty()) return {};

  for (const res::Resource r : res::all_resources) {
    if (free[r] <= 1e-9) continue;
    const PolicyResult result =
        policy_->reclaim(shares_of(bases, r), -free[r]);
    for (std::size_t i = 0; i < deflated.size(); ++i) {
      targets[i][r] = result.targets[i];
    }
  }

  res::ResourceVector given;
  for (std::size_t i = 0; i < deflated.size(); ++i) {
    hv::Vm& vm = *deflated[i];
    const res::ResourceVector before = vm.effective_allocation();
    if ((targets[i] - before).is_zero()) continue;
    mechanism_->apply(vm, targets[i]);
    const res::ResourceVector after = vm.effective_allocation();
    given += (after - before).clamped_nonneg();
    notify(vm, before, after);
  }
  return given;
}

void LocalDeflationController::apply_allocation(hv::Vm& vm,
                                                const res::ResourceVector& target) {
  const res::ResourceVector before = vm.effective_allocation();
  mechanism_->apply(vm, target);
  const res::ResourceVector after = vm.effective_allocation();
  if (!(after - before).is_zero()) notify(vm, before, after);
}

void LocalDeflationController::notify(const hv::Vm& vm,
                                      const res::ResourceVector& old_alloc,
                                      const res::ResourceVector& new_alloc) const {
  for (const auto& callback : callbacks_) callback(vm, old_alloc, new_alloc);
}

}  // namespace deflate::core
