#include <algorithm>
#include <cmath>

#include "mechanisms/mechanism.hpp"

namespace deflate::mech {

// Direct transliteration of Fig. 13:
//
//   def deflate_hybrid(target):
//       hotplug_val = max(get_hp_threshold(), round_up(target))
//       deflate_hotplug(hotplug_val)
//       deflate_multiplexing(target)
//
// per resource: hotplug as far as the guest's safety threshold allows, then
// cgroup multiplexing covers the (fractional or refused) remainder.
MechanismReport HybridDeflation::apply(hv::Vm& vm,
                                       const res::ResourceVector& target) {
  const res::ResourceVector goal = clamp_target(vm, target);
  const hv::GuestOs& guest = vm.guest();

  // --- CPU ---
  const double cpu_target = goal[res::Resource::Cpu];
  const int cpu_hotplug_val =
      std::max(guest.vcpu_unplug_floor(),
               static_cast<int>(std::ceil(cpu_target)));
  vm.request_vcpus(cpu_hotplug_val);
  vm.set_cpu_quota(cpu_target);

  // --- Memory --- (hp threshold = RSS-derived floor, §4.4: "we presume it
  // is safe to unplug as long as the VM has more memory than the current
  // RSS value")
  const double mem_target = goal[res::Resource::Memory];
  const double mem_hotplug_val =
      std::max(guest.memory_unplug_floor_mib(),
               std::ceil(mem_target / hv::kMemoryBlockMib) * hv::kMemoryBlockMib);
  vm.request_balloon(vm.spec().memory_mib);  // no balloon
  vm.request_memory(mem_hotplug_val);
  vm.set_memory_limit(mem_target);

  // --- I/O --- (transparent only; no unplug path exists)
  vm.set_disk_throttle(goal[res::Resource::DiskBw]);
  vm.set_net_throttle(goal[res::Resource::NetBw]);

  return finish(vm, goal);
}

}  // namespace deflate::mech
