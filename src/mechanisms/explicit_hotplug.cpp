#include <cmath>

#include "mechanisms/mechanism.hpp"

namespace deflate::mech {

MechanismReport ExplicitDeflation::apply(hv::Vm& vm,
                                         const res::ResourceVector& target) {
  const res::ResourceVector goal = clamp_target(vm, target);
  const auto& spec = vm.spec();

  // Hotplug is coarse: round the CPU target up to whole vCPUs and let the
  // guest apply its own safety floor. Lift any cgroup caps so the plugged
  // amount *is* the effective allocation (this mechanism is hotplug-only).
  const int cpu_request =
      static_cast<int>(std::ceil(goal[res::Resource::Cpu]));
  vm.request_vcpus(cpu_request);
  vm.set_cpu_quota(static_cast<double>(spec.vcpus));

  vm.request_balloon(spec.memory_mib);  // hotplug path: no balloon
  vm.request_memory(goal[res::Resource::Memory]);
  vm.set_memory_limit(spec.memory_mib);

  // NIC/disk unplug is unsafe (§4.3); a pure explicit mechanism leaves I/O
  // at the spec allocation.
  vm.set_disk_throttle(spec.disk_bw_mbps);
  vm.set_net_throttle(spec.net_bw_mbps);

  return finish(vm, goal);
}

}  // namespace deflate::mech
