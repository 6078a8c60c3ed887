#include "hypervisor/virt.hpp"

#include <stdexcept>

namespace deflate::virt {

DomainInfo Domain::info() const {
  DomainInfo info;
  const hv::VmSpec& spec = vm_->spec();
  info.max_vcpus = spec.vcpus;
  info.online_vcpus = vm_->guest().vcpus();
  info.cpu_quota_cores = vm_->cgroups().cpu_quota_cores;
  info.max_memory_mib = spec.memory_mib;
  info.memory_mib = vm_->guest().plugged_memory_mib();
  info.memory_limit_mib = vm_->cgroups().memory_limit_mib;
  info.disk_bw_mbps = vm_->cgroups().disk_bw_mbps;
  info.net_bw_mbps = vm_->cgroups().net_bw_mbps;
  return info;
}

void Domain::set_scheduler_cpu_quota(double cores) {
  hypervisor_->set_cpu_quota(*vm_, cores);
}

void Domain::set_memory_hard_limit(double mib) {
  hypervisor_->set_memory_limit(*vm_, mib);
}

void Domain::set_blkio_bandwidth(double mbps) {
  hypervisor_->set_disk_throttle(*vm_, mbps);
}

void Domain::set_interface_bandwidth(double mbps) {
  hypervisor_->set_net_throttle(*vm_, mbps);
}

hv::HotplugResult Domain::agent_set_vcpus(int vcpus) {
  return hypervisor_->hotplug_vcpus(*vm_, vcpus);
}

hv::HotplugResult Domain::agent_set_memory(double mib) {
  return hypervisor_->hotplug_memory(*vm_, mib);
}

hv::HotplugResult Domain::balloon_set_memory(double mib) {
  return hypervisor_->balloon_memory(*vm_, mib);
}

Domain Connection::define_and_start(const hv::VmSpec& spec) {
  hv::Vm& vm = hypervisor_->create_vm(spec);
  return Domain(*hypervisor_, vm);
}

Domain Connection::lookup_by_id(std::uint64_t vm_id) {
  hv::Vm* vm = hypervisor_->host().find_vm(vm_id);
  if (vm == nullptr) {
    throw std::out_of_range("virt::Connection: no such domain");
  }
  return Domain(*hypervisor_, *vm);
}

bool Connection::destroy(std::uint64_t vm_id) {
  return hypervisor_->destroy_vm(vm_id);
}

}  // namespace deflate::virt
