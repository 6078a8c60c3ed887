#include "hypervisor/hypervisor.hpp"

namespace deflate::hv {

HotplugResult SimHypervisor::hotplug_vcpus(Vm& vm, int vcpus) const {
  HotplugResult result;
  result.requested = static_cast<double>(vcpus);
  result.achieved = static_cast<double>(vm.request_vcpus(vcpus));
  return result;
}

HotplugResult SimHypervisor::hotplug_memory(Vm& vm, double mib) const {
  HotplugResult result;
  result.requested = mib;
  result.achieved = vm.request_memory(mib);
  return result;
}

HotplugResult SimHypervisor::balloon_memory(Vm& vm, double mib) const {
  HotplugResult result;
  result.requested = mib;
  result.achieved = vm.request_balloon(mib);
  return result;
}

}  // namespace deflate::hv
