#include "mechanisms/mechanism.hpp"

namespace deflate::mech {

MechanismReport BalloonDeflation::apply(hv::Vm& vm,
                                        const res::ResourceVector& target) {
  const res::ResourceVector goal = clamp_target(vm, target);
  const auto& spec = vm.spec();

  // Memory via the balloon driver: inflate to pin (spec - target) pages.
  // No block alignment and no RSS floor — the guest swaps if squeezed too
  // far, exactly like transparent deflation, but without the cgroup limit.
  vm.request_balloon(goal[res::Resource::Memory]);
  vm.set_memory_limit(spec.memory_mib);

  // Everything else multiplexes transparently.
  vm.set_cpu_quota(goal[res::Resource::Cpu]);
  vm.set_disk_throttle(goal[res::Resource::DiskBw]);
  vm.set_net_throttle(goal[res::Resource::NetBw]);
  return finish(vm, goal);
}

}  // namespace deflate::mech
