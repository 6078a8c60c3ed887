#include "mechanisms/mechanism.hpp"

namespace deflate::mech {

MechanismReport TransparentDeflation::apply(hv::Vm& vm,
                                            const res::ResourceVector& target) {
  const res::ResourceVector goal = clamp_target(vm, target);
  const auto& spec = vm.spec();

  // Pure multiplexing: adjust cgroup quotas/limits; the guest keeps seeing
  // its full plugged resources and simply runs slower (§4.2). When the VM
  // was previously hot-unplugged, re-plug first so the cgroup limit is the
  // only constraint (the mechanisms compose — hybrid relies on this).
  if (vm.guest().vcpus() < spec.vcpus) vm.request_vcpus(spec.vcpus);
  if (vm.guest().plugged_memory_mib() < spec.memory_mib) {
    vm.request_memory(spec.memory_mib);
  }
  vm.request_balloon(spec.memory_mib);  // deflate any balloon

  vm.set_cpu_quota(goal[res::Resource::Cpu]);
  vm.set_memory_limit(goal[res::Resource::Memory]);
  vm.set_disk_throttle(goal[res::Resource::DiskBw]);
  vm.set_net_throttle(goal[res::Resource::NetBw]);
  return finish(vm, goal);
}

}  // namespace deflate::mech
