// Virtual machine model: static spec + dynamic allocation state.
//
// A VM's *effective* allocation is the elementwise minimum of what is
// explicitly plugged (visible to the guest) and what the hypervisor-side
// cgroup limits permit (invisible to the guest). Deflation mechanisms move
// one or both of these; policies reason only about effective allocations.
//
// Every write that can move the effective allocation is a member of this
// class: the four cgroup setters and the three guest requests (vCPU and
// memory hotplug, balloon). Each one bumps the version counter of the Host
// the VM lives on (Host::version()), so per-host totals memoized on that
// version never go stale. The guest is exposed read-only; its workload
// state (RSS, CPU load) does not change the allocation and has its own
// setters here.
#pragma once

#include <cstdint>
#include <string>

#include "hypervisor/guest_os.hpp"
#include "resources/resource_vector.hpp"

namespace deflate::hv {

/// Azure-trace workload classes (§3.2.1). Interactive VMs are the paper's
/// deflatable pool in the cluster evaluation (§7.1.2).
enum class WorkloadClass { Interactive, DelayInsensitive, Unknown };

[[nodiscard]] const char* workload_class_name(WorkloadClass c) noexcept;

struct VmSpec {
  std::uint64_t id = 0;
  std::string name;
  int vcpus = 1;
  double memory_mib = 1024.0;
  double disk_bw_mbps = 100.0;
  double net_bw_mbps = 1000.0;
  /// Priority pi in (0, 1]; higher = less deflatable (§5.1.2). On-demand
  /// (non-deflatable) VMs conventionally carry 1.0.
  double priority = 1.0;
  bool deflatable = false;
  /// Per-resource minimum allocation as a fraction of the spec (m_i = f*M_i,
  /// §5.1.1 Eq. 2). Zero means the VM may be deflated arbitrarily far.
  double min_fraction = 0.0;
  WorkloadClass workload = WorkloadClass::Unknown;

  [[nodiscard]] res::ResourceVector vector() const noexcept {
    return {static_cast<double>(vcpus), memory_mib, disk_bw_mbps, net_bw_mbps};
  }
  [[nodiscard]] res::ResourceVector min_vector() const noexcept {
    return vector() * min_fraction;
  }
};

/// Hypervisor-side cgroup state for one VM (cpu.cfs quota expressed in
/// cores, mem.limit_in_bytes in MiB, blkio and net-cls throttles in MB/s
/// and Mbps). Values are capped at the spec: cgroups can only *restrict*.
struct CgroupLimits {
  double cpu_quota_cores = 0.0;
  double memory_limit_mib = 0.0;
  double disk_bw_mbps = 0.0;
  double net_bw_mbps = 0.0;
};

class Vm {
 public:
  explicit Vm(VmSpec spec);
  // A hosted VM points at its host's version counter; a copy would too.
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  [[nodiscard]] const VmSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const GuestOs& guest() const noexcept { return guest_; }

  // --- guest workload (no effect on the allocation) --------------------------
  void set_rss(double rss_mib) noexcept { guest_.set_rss(rss_mib); }
  void set_cpu_load(double cores) noexcept { guest_.set_cpu_load(cores); }

  // --- guest requests (agent hotplug and the balloon; see mechanism.hpp) -----
  /// GuestOs::request_vcpus capped at the spec; returns the online count.
  int request_vcpus(int vcpus);
  /// GuestOs::request_memory capped at the spec; returns the plugged size.
  double request_memory(double mib);
  /// GuestOs::request_balloon_target; returns the usable size.
  double request_balloon(double usable_mib);

  // --- cgroup (transparent) controls ---------------------------------------
  void set_cpu_quota(double cores) noexcept;
  void set_memory_limit(double mib) noexcept;
  void set_disk_throttle(double mbps) noexcept;
  void set_net_throttle(double mbps) noexcept;
  [[nodiscard]] const CgroupLimits& cgroups() const noexcept { return cgroups_; }

  // --- allocation views ------------------------------------------------------
  /// What the guest *sees* (plugged resources).
  [[nodiscard]] res::ResourceVector plugged() const noexcept;
  /// What the VM can actually use: min(plugged, cgroup limits).
  [[nodiscard]] res::ResourceVector effective_allocation() const noexcept;
  /// 1 - effective/spec for the given resource, in [0, 1].
  [[nodiscard]] double deflation_fraction(res::Resource r) const noexcept;
  /// Worst-case (maximum) deflation fraction across resources.
  [[nodiscard]] double max_deflation_fraction() const noexcept;
  /// Swap pressure implied by the current effective memory allocation.
  [[nodiscard]] double memory_swap_pressure() const noexcept;

  /// Floor the cluster policies must respect: max(spec minimums, one block
  /// of memory / a sliver of CPU so the guest stays alive).
  [[nodiscard]] res::ResourceVector allocation_floor() const noexcept;

 private:
  friend class Host;  // binds host_version_ in Host::add_vm

  void bump_version() noexcept {
    if (host_version_ != nullptr) ++*host_version_;
  }

  VmSpec spec_;
  GuestOs guest_;
  CgroupLimits cgroups_;
  /// The owning host's version counter; null for a VM on no host.
  std::uint64_t* host_version_ = nullptr;
};

}  // namespace deflate::hv
