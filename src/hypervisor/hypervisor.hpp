// Simulated per-server hypervisor (the KVM stand-in, DESIGN.md §1).
//
// Exposes exactly the control surface the paper's prototype drives through
// libvirt + cgroups + the QEMU guest agent:
//   * transparent multiplexing: cgroup CPU quota, memory limit, blkio and
//     network throttles (§4.2);
//   * explicit hotplug: agent-mediated vCPU / memory plug & unplug with
//     guest safety semantics (§4.3);
//   * the virtio memory balloon.
// Every one of these is a write to a VM's effective allocation and bumps
// the host's version (host.hpp).
// Policy code should prefer the virt:: facade (libvirt-like API) layered on
// top of this class.
#pragma once

#include <cstdint>

#include "hypervisor/host.hpp"

namespace deflate::hv {

/// Outcome of one hotplug request (explicit deflation is allowed to return
/// "unfinished", §6).
struct HotplugResult {
  double requested = 0.0;  ///< what the caller asked for
  double achieved = 0.0;   ///< what the guest actually ended up with
  [[nodiscard]] bool complete() const noexcept { return achieved <= requested; }
};

class SimHypervisor {
 public:
  SimHypervisor(std::uint64_t host_id, res::ResourceVector capacity)
      : host_(host_id, capacity) {}

  [[nodiscard]] Host& host() noexcept { return host_; }
  [[nodiscard]] const Host& host() const noexcept { return host_; }

  /// Boots a VM. The VM starts with its full spec plugged and un-throttled;
  /// callers that want to *launch deflated* (§5.1.1) apply a mechanism right
  /// after. Throws on duplicate id.
  Vm& create_vm(const VmSpec& spec) { return host_.add_vm(spec); }

  /// Destroys the VM, releasing its resources. Returns false if unknown.
  bool destroy_vm(std::uint64_t vm_id) { return host_.remove_vm(vm_id); }

  // --- transparent (cgroups) ops --------------------------------------------
  void set_cpu_quota(Vm& vm, double cores) const { vm.set_cpu_quota(cores); }
  void set_memory_limit(Vm& vm, double mib) const { vm.set_memory_limit(mib); }
  void set_disk_throttle(Vm& vm, double mbps) const { vm.set_disk_throttle(mbps); }
  void set_net_throttle(Vm& vm, double mbps) const { vm.set_net_throttle(mbps); }

  // --- explicit (agent-mediated hotplug) ops ---------------------------------
  /// Requests the guest online exactly `vcpus`; the guest may stop at its
  /// safety floor.
  HotplugResult hotplug_vcpus(Vm& vm, int vcpus) const;
  /// Requests plugged memory of `mib` (block-aligned by the guest).
  HotplugResult hotplug_memory(Vm& vm, double mib) const;
  /// virtio-balloon: requests the guest's *usable* memory be `mib`;
  /// `achieved` is the resulting usable size.
  HotplugResult balloon_memory(Vm& vm, double mib) const;

 private:
  Host host_;
};

}  // namespace deflate::hv
