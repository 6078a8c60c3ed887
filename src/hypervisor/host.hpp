// A physical server hosting VMs. Tracks committed (sum of specs) vs
// allocated (sum of effective allocations) resources; the gap between the
// two is what deflation trades in.
//
// Storage: residents live in one arrival-ordered vector of owned VMs, with
// a dense id column beside it. Hosts hold tens of VMs, so find_vm and
// remove_vm scan the id column linearly instead of hashing.
//
// Version: version() counts every change to what the host holds. add_vm
// and remove_vm bump it, and so does every write to a resident's effective
// allocation (each Vm is bound to this counter in add_vm; see vm.hpp). A
// value derived only from the residents' specs and allocations may be
// memoized on the version, as committed() and allocated() are. A recompute
// sums in arrival order, and add_vm extends current totals by the newcomer
// (the last term of that order), so a memoized total is bit-identical to
// a fresh one. The residents point at the counter, so a Host is neither
// copyable nor movable.
#pragma once

#include <cstdint>
#include <memory>
#include <ranges>
#include <vector>

#include "hypervisor/vm.hpp"
#include "resources/resource_vector.hpp"

namespace deflate::hv {

class Host {
 public:
  Host(std::uint64_t id, res::ResourceVector capacity);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const res::ResourceVector& capacity() const noexcept {
    return capacity_;
  }

  /// Adds a VM; returns a stable reference (Host owns the VM). Throws
  /// std::invalid_argument on a duplicate id.
  Vm& add_vm(VmSpec spec);
  /// Removes the VM and hands it back detached from this host (its writes
  /// no longer bump version()); null if not resident.
  std::unique_ptr<Vm> remove_vm(std::uint64_t vm_id);
  [[nodiscard]] Vm* find_vm(std::uint64_t vm_id) noexcept;

  /// Resident VMs in arrival order (deterministic iteration for policies):
  /// a non-allocating view of Vm pointers, invalidated by add_vm and
  /// remove_vm.
  [[nodiscard]] auto vms() noexcept {
    return vms_ | std::views::transform(
                      [](const std::unique_ptr<Vm>& vm) { return vm.get(); });
  }
  [[nodiscard]] auto vms() const noexcept {
    return vms_ | std::views::transform([](const std::unique_ptr<Vm>& vm) {
             return static_cast<const Vm*>(vm.get());
           });
  }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }

  /// Changes whenever a resident arrives, leaves or has its effective
  /// allocation written.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Sum of VM spec sizes (what customers were promised).
  [[nodiscard]] res::ResourceVector committed() const noexcept;
  /// Sum of effective allocations (what is physically handed out).
  [[nodiscard]] res::ResourceVector allocated() const noexcept;
  /// capacity - allocated, clamped at zero.
  [[nodiscard]] res::ResourceVector available() const noexcept;
  /// committed/capacity maximized over CPU and memory; 1.0 = fully
  /// committed, >1 = overcommitted (the paper's `overcommitted_j`).
  [[nodiscard]] double overcommit_ratio() const noexcept;

 private:
  /// Recomputes committed_ and allocated_ unless they are current.
  void refresh_totals() const noexcept;

  std::uint64_t id_;
  res::ResourceVector capacity_;
  std::vector<std::unique_ptr<Vm>> vms_;  ///< arrival order
  std::vector<std::uint64_t> ids_;        ///< vms_[i]->spec().id
  std::uint64_t version_ = 0;
  // Memo of both totals. Version 0 is the empty host whose totals are
  // zero, so the zero-initialized memo starts out current.
  mutable std::uint64_t totals_version_ = 0;
  mutable res::ResourceVector committed_;
  mutable res::ResourceVector allocated_;
};

}  // namespace deflate::hv
