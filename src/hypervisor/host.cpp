#include "hypervisor/host.hpp"

#include <algorithm>
#include <stdexcept>

namespace deflate::hv {

Host::Host(std::uint64_t id, res::ResourceVector capacity)
    : id_(id), capacity_(capacity) {}

Vm& Host::add_vm(VmSpec spec) {
  const std::uint64_t vm_id = spec.id;
  if (std::find(ids_.begin(), ids_.end(), vm_id) != ids_.end()) {
    throw std::invalid_argument("Host::add_vm: duplicate VM id");
  }
  auto vm = std::make_unique<Vm>(std::move(spec));
  vm->host_version_ = &version_;
  vms_.push_back(std::move(vm));
  try {
    ids_.push_back(vm_id);
  } catch (...) {
    vms_.pop_back();  // keep the two columns in step
    throw;
  }
  const bool totals_current = totals_version_ == version_;
  ++version_;
  Vm& added = *vms_.back();
  if (totals_current) {
    // The newcomer is last in arrival order, so adding it to current
    // totals performs exactly the additions of a fresh sum.
    committed_ += added.spec().vector();
    allocated_ += added.effective_allocation();
    totals_version_ = version_;
  }
  return added;
}

bool Host::remove_vm(std::uint64_t vm_id) {
  const auto it = std::find(ids_.begin(), ids_.end(), vm_id);
  if (it == ids_.end()) return false;
  vms_.erase(vms_.begin() + (it - ids_.begin()));
  ids_.erase(it);
  ++version_;
  return true;
}

Vm* Host::find_vm(std::uint64_t vm_id) noexcept {
  const auto it = std::find(ids_.begin(), ids_.end(), vm_id);
  return it == ids_.end() ? nullptr : vms_[it - ids_.begin()].get();
}

void Host::refresh_totals() const noexcept {
  if (totals_version_ == version_) return;
  res::ResourceVector committed;
  res::ResourceVector allocated;
  for (const auto& vm : vms_) {
    committed += vm->spec().vector();
    allocated += vm->effective_allocation();
  }
  committed_ = committed;
  allocated_ = allocated;
  totals_version_ = version_;
}

res::ResourceVector Host::committed() const noexcept {
  refresh_totals();
  return committed_;
}

res::ResourceVector Host::allocated() const noexcept {
  refresh_totals();
  return allocated_;
}

res::ResourceVector Host::available() const noexcept {
  return (capacity_ - allocated()).clamped_nonneg();
}

double Host::overcommit_ratio() const noexcept {
  const res::ResourceVector c = committed();
  double worst = 0.0;
  for (const res::Resource r : {res::Resource::Cpu, res::Resource::Memory}) {
    if (capacity_[r] > 0.0) worst = std::max(worst, c[r] / capacity_[r]);
  }
  return worst;
}

}  // namespace deflate::hv
