#include "hypervisor/guest_os.hpp"

#include <algorithm>
#include <cmath>

namespace deflate::hv {

GuestOs::GuestOs(int vcpus, double memory_mib, double kernel_reserve_mib)
    : vcpus_(std::max(1, vcpus)),
      memory_mib_(std::max(kMemoryBlockMib, memory_mib)),
      kernel_reserve_mib_(std::max(0.0, kernel_reserve_mib)) {}

void GuestOs::set_rss(double rss_mib) noexcept {
  rss_mib_ = std::clamp(rss_mib, 0.0, memory_mib_ - kernel_reserve_mib_);
}

void GuestOs::set_cpu_load(double cores) noexcept {
  cpu_load_ = std::max(0.0, cores);
}

double GuestOs::align_up_block(double mib) noexcept {
  return std::ceil(mib / kMemoryBlockMib) * kMemoryBlockMib;
}

int GuestOs::vcpu_unplug_floor() const noexcept {
  return std::max(1, static_cast<int>(std::ceil(cpu_load_)));
}

double GuestOs::memory_unplug_floor_mib() const noexcept {
  return std::max(kMemoryBlockMib,
                  align_up_block(rss_mib_ + kernel_reserve_mib_));
}

int GuestOs::request_vcpus(int target, int max_vcpus) {
  target = std::min(target, max_vcpus);
  if (target >= vcpus_) {  // plugging in always succeeds up to the cap
    vcpus_ = std::max(1, target);
    return vcpus_;
  }
  // Unplug: honour the safety floor; partial compliance is allowed (§6:
  // "the hot unplug operation is allowed to return unfinished").
  vcpus_ = std::max(target, vcpu_unplug_floor());
  return vcpus_;
}

double GuestOs::request_memory(double target_mib, double max_mib) {
  target_mib = std::min(target_mib, max_mib);
  const double aligned = align_up_block(std::max(target_mib, 0.0));
  if (aligned >= memory_mib_) {  // plugging in; never exceed the VM spec
    memory_mib_ = std::min(max_mib, aligned);
    return memory_mib_;
  }
  memory_mib_ = std::max(aligned, memory_unplug_floor_mib());
  balloon_mib_ = std::min(balloon_mib_,
                          std::max(0.0, memory_mib_ - kernel_reserve_mib_));
  return memory_mib_;
}

double GuestOs::request_balloon_target(double usable_mib) {
  // The balloon can grow until only the kernel reserve remains usable, and
  // deflates fully on request. Page-granular: no alignment constraint.
  const double min_usable = std::max(kMemoryBlockMib / 2.0, kernel_reserve_mib_);
  const double target_balloon =
      std::clamp(memory_mib_ - usable_mib, 0.0, memory_mib_ - min_usable);
  balloon_mib_ = target_balloon;
  return usable_memory_mib();
}

double GuestOs::swap_pressure(double limit_mib) const noexcept {
  const double needed = rss_mib_ + kernel_reserve_mib_;
  if (limit_mib >= needed || needed <= 0.0 || rss_mib_ <= 0.0) return 0.0;
  return std::clamp((needed - limit_mib) / rss_mib_, 0.0, 1.0);
}

}  // namespace deflate::hv
