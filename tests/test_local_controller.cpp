#include "core/local_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace core = deflate::core;
namespace hv = deflate::hv;
namespace mech = deflate::mech;
namespace res = deflate::res;

namespace {

struct Rig {
  explicit Rig(core::PolicyKind kind = core::PolicyKind::Proportional)
      : host(0, {48.0, 131072.0, 4000.0, 40000.0}),
        controller(host, core::make_policy(kind),
                   std::make_shared<mech::HybridDeflation>()) {}

  hv::Vm& boot(std::uint64_t id, int vcpus, double mem, bool deflatable,
               double priority = 0.5) {
    hv::VmSpec spec;
    spec.id = id;
    spec.name = "vm-" + std::to_string(id);
    spec.vcpus = vcpus;
    spec.memory_mib = mem;
    spec.disk_bw_mbps = 100.0;
    spec.net_bw_mbps = 1000.0;
    spec.deflatable = deflatable;
    spec.priority = priority;
    return host.add_vm(spec);
  }

  hv::Host host;
  core::LocalDeflationController controller;
};

}  // namespace

TEST(LocalController, NoDeflationWhenCapacityFree) {
  Rig rig;
  rig.boot(1, 8, 16384.0, true);
  const auto outcome = rig.controller.make_room_for({8.0, 16384.0, 0.0, 0.0});
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.vms_deflated, 0);
  EXPECT_TRUE(outcome.reclaimed.is_zero());
}

TEST(LocalController, DeflatesToMakeRoom) {
  Rig rig;
  // Fill the host: 3 deflatable VMs of 16 cores each = 48 committed.
  for (int i = 0; i < 3; ++i) rig.boot(static_cast<std::uint64_t>(i), 16, 32768.0, true);
  EXPECT_DOUBLE_EQ(rig.host.available().cpu(), 0.0);

  const auto outcome = rig.controller.make_room_for({12.0, 16384.0, 0.0, 0.0});
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.vms_deflated, 3);  // proportional touches everyone
  EXPECT_GE(rig.host.available().cpu(), 12.0 - 1e-6);
  EXPECT_GE(rig.host.available().memory(), 16384.0 - 1e-6);
}

TEST(LocalController, FailureIsAtomic) {
  Rig rig;
  rig.boot(1, 16, 32768.0, /*deflatable=*/false);
  rig.boot(2, 16, 32768.0, /*deflatable=*/false);
  hv::Vm& deflatable = rig.boot(3, 16, 32768.0, true);
  // Demand exceeds what deflating VM 3 alone can free.
  const auto outcome = rig.controller.make_room_for({40.0, 0.0, 0.0, 0.0});
  EXPECT_FALSE(outcome.success);
  // Atomicity: nothing was deflated on the failed attempt.
  EXPECT_DOUBLE_EQ(deflatable.max_deflation_fraction(), 0.0);
  EXPECT_EQ(outcome.vms_deflated, 0);
}

TEST(LocalController, OnDemandVmsNeverTouched) {
  Rig rig;
  hv::Vm& od = rig.boot(1, 24, 65536.0, /*deflatable=*/false);
  rig.boot(2, 24, 65536.0, true);
  const auto outcome = rig.controller.make_room_for({20.0, 40000.0, 0.0, 0.0});
  EXPECT_TRUE(outcome.success);
  EXPECT_DOUBLE_EQ(od.max_deflation_fraction(), 0.0);
}

TEST(LocalController, MakesRoomWithinReclaimableHeadroom) {
  Rig rig;
  for (int i = 0; i < 3; ++i) rig.boot(static_cast<std::uint64_t>(i), 16, 32768.0, true);
  const res::ResourceVector fits{30.0, 60000.0, 0.0, 0.0};
  EXPECT_TRUE(rig.controller.make_room_for(fits).success);
}

TEST(LocalController, ReclaimableHeadroomTracksPolicy) {
  Rig proportional(core::PolicyKind::Proportional);
  Rig deterministic(core::PolicyKind::Deterministic);
  for (Rig* rig : {&proportional, &deterministic}) {
    rig->boot(1, 16, 32768.0, true, /*priority=*/0.5);
  }
  // Proportional can go to the survival floor; deterministic only to pi*M.
  EXPECT_NEAR(proportional.controller.reclaimable_headroom().cpu(), 16.0 - 0.05,
              1e-9);
  EXPECT_NEAR(deterministic.controller.reclaimable_headroom().cpu(), 8.0, 1e-9);
}

namespace {

/// reclaimable_headroom's definition, recomputed from scratch: per VM and
/// per resource, in arrival order.
res::ResourceVector fresh_headroom(const hv::Host& host,
                                   const core::DeflationPolicy& policy) {
  res::ResourceVector headroom;
  for (const hv::Vm* vm : host.vms()) {
    if (!vm->spec().deflatable) continue;
    for (const res::Resource r : res::all_resources) {
      core::VmShare share;
      share.id = vm->spec().id;
      share.max_alloc = vm->spec().vector()[r];
      share.min_alloc = vm->allocation_floor()[r];
      share.priority = vm->spec().priority;
      share.current = vm->effective_allocation()[r];
      headroom[r] += std::max(0.0, share.current - policy.min_retained(share));
    }
  }
  return headroom;
}

}  // namespace

TEST(LocalController, ReclaimableHeadroomMatchesRecomputeUnderChurn) {
  for (const auto kind :
       {core::PolicyKind::Proportional, core::PolicyKind::Deterministic}) {
    Rig rig(kind);
    deflate::util::Rng rng(20260417);
    std::vector<std::uint64_t> residents;
    std::uint64_t next_id = 1;
    for (int step = 0; step < 600; ++step) {
      const auto op = rng.uniform_int(0, 5);
      if (op <= 2) {  // arrival, possibly a deflated launch
        const std::uint64_t id = next_id++;
        const bool deflatable = rng.uniform(0.0, 1.0) < 0.7;
        const double fraction = deflatable ? rng.uniform(0.4, 1.0) : 1.0;
        const int vcpus = static_cast<int>(rng.uniform_int(1, 8));
        const double mem = rng.uniform(1024.0, 16384.0);
        const res::ResourceVector demand =
            res::ResourceVector{static_cast<double>(vcpus), mem, 100.0,
                                1000.0} *
            fraction;
        if (rig.controller.make_room_for(demand).success) {
          hv::Vm& vm = rig.boot(id, vcpus, mem, deflatable,
                                rng.uniform(0.1, 1.0));
          if (fraction < 1.0) rig.controller.apply_allocation(vm, demand);
          residents.push_back(id);
        }
      } else if (op == 3 && !residents.empty()) {  // departure
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(residents.size()) - 1));
        ASSERT_TRUE(rig.host.remove_vm(residents[k]));
        residents.erase(residents.begin() + static_cast<std::ptrdiff_t>(k));
        rig.controller.redistribute_free();
      } else if (op == 4 && !residents.empty()) {  // direct re-allocation
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(residents.size()) - 1));
        hv::Vm& vm = *rig.host.find_vm(residents[k]);
        if (vm.spec().deflatable) {
          rig.controller.apply_allocation(
              vm, vm.spec().vector() * rng.uniform(0.2, 1.0));
        }
      } else {
        rig.controller.redistribute_free();
      }
      const res::ResourceVector headroom =
          rig.controller.reclaimable_headroom();
      const res::ResourceVector fresh =
          fresh_headroom(rig.host, rig.controller.policy());
      for (const res::Resource r : res::all_resources) {
        ASSERT_EQ(headroom[r], fresh[r]) << "step " << step;
      }
    }
    EXPECT_FALSE(residents.empty());
  }
}

TEST(LocalController, RedistributeFreeReinflates) {
  Rig rig;
  hv::Vm& vm1 = rig.boot(1, 16, 32768.0, true);
  hv::Vm& vm2 = rig.boot(2, 16, 32768.0, true);
  rig.boot(3, 16, 32768.0, true);
  ASSERT_TRUE(rig.controller.make_room_for({12.0, 16384.0, 0.0, 0.0}).success);
  EXPECT_GT(vm1.max_deflation_fraction(), 0.0);

  // The "new VM" departs without ever being placed: free capacity returns.
  const auto given = rig.controller.redistribute_free();
  EXPECT_GT(given.cpu(), 0.0);
  EXPECT_DOUBLE_EQ(vm1.max_deflation_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(vm2.max_deflation_fraction(), 0.0);
  EXPECT_LE(rig.host.available().cpu(), 1e-6);
}

TEST(LocalController, PartialReinflationConservesCapacity) {
  Rig rig;
  for (int i = 0; i < 3; ++i) rig.boot(static_cast<std::uint64_t>(i), 16, 32768.0, true);
  ASSERT_TRUE(rig.controller.make_room_for({24.0, 0.0, 0.0, 0.0}).success);
  // Pretend a 12-core VM landed and holds the space: deflate state stands.
  rig.boot(99, 12, 8192.0, false);
  rig.controller.redistribute_free();
  const auto allocated = rig.host.allocated();
  EXPECT_LE(allocated.cpu(), 48.0 + 1e-6);  // never over capacity
  EXPECT_GE(allocated.cpu(), 48.0 - 1e-6);  // but fully reinflated into slack
}

TEST(LocalController, NotificationsFireOnDeflation) {
  Rig rig;
  for (int i = 0; i < 2; ++i) rig.boot(static_cast<std::uint64_t>(i), 24, 65536.0, true);
  int events = 0;
  res::ResourceVector last_old, last_new;
  rig.controller.subscribe([&](const hv::Vm&, const res::ResourceVector& o,
                               const res::ResourceVector& n) {
    ++events;
    last_old = o;
    last_new = n;
  });
  ASSERT_TRUE(rig.controller.make_room_for({10.0, 0.0, 0.0, 0.0}).success);
  EXPECT_EQ(events, 2);
  EXPECT_GT(last_old.cpu(), last_new.cpu());
}

TEST(LocalController, ApplyAllocationDrivesSingleVm) {
  Rig rig;
  hv::Vm& vm = rig.boot(1, 8, 16384.0, true);
  int events = 0;
  rig.controller.subscribe(
      [&](const hv::Vm&, const res::ResourceVector&, const res::ResourceVector&) {
        ++events;
      });
  rig.controller.apply_allocation(vm, vm.spec().vector() * 0.5);
  EXPECT_NEAR(vm.effective_allocation().cpu(), 4.0, 1e-9);
  EXPECT_EQ(events, 1);
  // No-op target fires no event.
  rig.controller.apply_allocation(vm, vm.effective_allocation());
  EXPECT_EQ(events, 1);
}

TEST(LocalController, DeterministicPolicyDeflatesLowestPriorityFirst) {
  Rig rig(core::PolicyKind::Deterministic);
  hv::Vm& high = rig.boot(1, 16, 32768.0, true, 0.8);
  hv::Vm& low = rig.boot(2, 16, 32768.0, true, 0.2);
  rig.boot(3, 16, 32768.0, false);
  // Need 10 cores: deflating `low` to 0.2*16 = 3.2 frees 12.8 — enough.
  ASSERT_TRUE(rig.controller.make_room_for({10.0, 0.0, 0.0, 0.0}).success);
  EXPECT_DOUBLE_EQ(high.max_deflation_fraction(), 0.0);
  EXPECT_GT(low.deflation_fraction(res::Resource::Cpu), 0.7);
}
