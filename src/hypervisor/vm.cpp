#include "hypervisor/vm.hpp"

#include <algorithm>

namespace deflate::hv {

namespace {

/// 1 - effective/spec in [0, 1]; zero for a resource the spec lacks.
double fraction_below_spec(double spec, double effective) noexcept {
  if (spec <= 0.0) return 0.0;
  return std::clamp(1.0 - effective / spec, 0.0, 1.0);
}

}  // namespace

const char* workload_class_name(WorkloadClass c) noexcept {
  switch (c) {
    case WorkloadClass::Interactive: return "interactive";
    case WorkloadClass::DelayInsensitive: return "delay-insensitive";
    case WorkloadClass::Unknown: return "unknown";
  }
  return "?";
}

Vm::Vm(VmSpec spec)
    : spec_(std::move(spec)), guest_(spec_.vcpus, spec_.memory_mib) {
  cgroups_.cpu_quota_cores = static_cast<double>(spec_.vcpus);
  cgroups_.memory_limit_mib = spec_.memory_mib;
  cgroups_.disk_bw_mbps = spec_.disk_bw_mbps;
  cgroups_.net_bw_mbps = spec_.net_bw_mbps;
}

int Vm::request_vcpus(int vcpus) {
  bump_version();
  return guest_.request_vcpus(vcpus, spec_.vcpus);
}

double Vm::request_memory(double mib) {
  bump_version();
  return guest_.request_memory(mib, spec_.memory_mib);
}

double Vm::request_balloon(double usable_mib) {
  bump_version();
  return guest_.request_balloon_target(usable_mib);
}

void Vm::set_cpu_quota(double cores) noexcept {
  bump_version();
  cgroups_.cpu_quota_cores =
      std::clamp(cores, 0.0, static_cast<double>(spec_.vcpus));
}

void Vm::set_memory_limit(double mib) noexcept {
  bump_version();
  cgroups_.memory_limit_mib = std::clamp(mib, 0.0, spec_.memory_mib);
}

void Vm::set_disk_throttle(double mbps) noexcept {
  bump_version();
  cgroups_.disk_bw_mbps = std::clamp(mbps, 0.0, spec_.disk_bw_mbps);
}

void Vm::set_net_throttle(double mbps) noexcept {
  bump_version();
  cgroups_.net_bw_mbps = std::clamp(mbps, 0.0, spec_.net_bw_mbps);
}

res::ResourceVector Vm::plugged() const noexcept {
  // Ballooned pages are pinned: the guest sees them plugged but cannot use
  // them, so they do not count toward the allocation.
  return {static_cast<double>(guest_.vcpus()), guest_.usable_memory_mib(),
          spec_.disk_bw_mbps, spec_.net_bw_mbps};
}

res::ResourceVector Vm::effective_allocation() const noexcept {
  const res::ResourceVector limits{cgroups_.cpu_quota_cores,
                                   cgroups_.memory_limit_mib,
                                   cgroups_.disk_bw_mbps, cgroups_.net_bw_mbps};
  return plugged().elementwise_min(limits);
}

double Vm::deflation_fraction(res::Resource r) const noexcept {
  return fraction_below_spec(spec_.vector()[r], effective_allocation()[r]);
}

double Vm::max_deflation_fraction() const noexcept {
  const res::ResourceVector spec = spec_.vector();
  const res::ResourceVector effective = effective_allocation();
  double worst = 0.0;
  for (const res::Resource r : res::all_resources) {
    worst = std::max(worst, fraction_below_spec(spec[r], effective[r]));
  }
  return worst;
}

double Vm::memory_swap_pressure() const noexcept {
  return guest_.swap_pressure(effective_allocation()[res::Resource::Memory]);
}

res::ResourceVector Vm::allocation_floor() const noexcept {
  // Keep the guest bootable: a sliver of a core, one memory block, and a
  // trickle of I/O, or the user-specified minimum if that is higher.
  const res::ResourceVector survival{0.05, kMemoryBlockMib, 1.0, 1.0};
  return spec_.min_vector().elementwise_max(
      survival.elementwise_min(spec_.vector()));
}

}  // namespace deflate::hv
