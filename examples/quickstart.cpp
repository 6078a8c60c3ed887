// Quickstart: boot a VM on a simulated hypervisor, deflate it with the
// hybrid mechanism (Fig. 13), inspect what the guest sees, and reinflate.
//
//   $ ./build/examples/quickstart
#include <iostream>

#include "core/local_controller.hpp"
#include "core/policy.hpp"
#include "hypervisor/host.hpp"
#include "mechanisms/mechanism.hpp"

int main() {
  using namespace deflate;

  // A 48-core / 128 GiB server.
  hv::Host host(/*id=*/0, {48.0, 128.0 * 1024.0, 4000.0, 40000.0});

  // Boot a deflatable 8-core / 16 GiB VM with its whole spec plugged.
  hv::VmSpec spec;
  spec.id = 1;
  spec.name = "web-frontend";
  spec.vcpus = 8;
  spec.memory_mib = 16 * 1024.0;
  spec.disk_bw_mbps = 200.0;
  spec.net_bw_mbps = 2000.0;
  spec.deflatable = true;
  spec.priority = 0.4;
  hv::Vm& vm = host.add_vm(spec);

  // Tell the guest model what the application is doing: ~2.5 cores of load
  // and a 9 GiB resident set. Hotplug safety thresholds derive from this.
  vm.set_cpu_load(2.5);
  vm.set_rss(9.0 * 1024.0);

  std::cout << "booted: " << vm.spec().name << " -> "
            << vm.effective_allocation() << "\n";

  // Deflate to 45% of the spec with the hybrid mechanism: hotplug down to
  // the guest-safe level, multiplexing covers the rest.
  mech::HybridDeflation hybrid;
  const auto report = hybrid.apply(vm, spec.vector() * 0.55);
  std::cout << "deflated to 45%:\n"
            << "  effective allocation: " << report.achieved << "\n"
            << "  guest-visible vCPUs:  " << vm.guest().vcpus() << " of "
            << spec.vcpus << " (cgroup quota "
            << vm.cgroups().cpu_quota_cores << " cores)\n"
            << "  guest-visible memory: " << vm.guest().plugged_memory_mib()
            << " MiB (limit " << vm.cgroups().memory_limit_mib << " MiB)\n"
            << "  swap pressure:        " << vm.memory_swap_pressure()
            << "\n";

  // The same controller machinery a cluster node runs: make room for an
  // incoming 24-core on-demand VM by deflating residents policy-driven.
  core::LocalDeflationController controller(
      host, core::make_policy(core::PolicyKind::Proportional),
      std::make_shared<mech::HybridDeflation>());
  const auto outcome =
      controller.make_room_for({46.0, 120.0 * 1024.0, 0.0, 0.0});
  std::cout << "make_room_for(46 cores / 120 GiB): "
            << (outcome.success ? "ok" : "failed") << ", reclaimed "
            << outcome.reclaimed << "\n";

  // Reinflate once the pressure is gone.
  hybrid.apply(vm, spec.vector());
  std::cout << "reinflated: " << vm.effective_allocation()
            << " (deflation fraction " << vm.max_deflation_fraction()
            << ")\n";
  return 0;
}
