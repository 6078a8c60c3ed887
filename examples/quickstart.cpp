// Quickstart: boot a VM on a simulated hypervisor, deflate it with the
// hybrid mechanism (Fig. 13), inspect what the guest sees, and reinflate.
//
//   $ ./build/examples/quickstart
#include <iostream>

#include "core/local_controller.hpp"
#include "core/policy.hpp"
#include "hypervisor/virt.hpp"
#include "mechanisms/mechanism.hpp"

int main() {
  using namespace deflate;

  // A 48-core / 128 GiB server running one KVM-style hypervisor.
  hv::SimHypervisor hypervisor(/*host_id=*/0,
                               {48.0, 128.0 * 1024.0, 4000.0, 40000.0});
  virt::Connection conn(hypervisor);

  // Define a deflatable 8-core / 16 GiB VM (libvirt-flavoured API).
  hv::VmSpec spec;
  spec.id = 1;
  spec.name = "web-frontend";
  spec.vcpus = 8;
  spec.memory_mib = 16 * 1024.0;
  spec.disk_bw_mbps = 200.0;
  spec.net_bw_mbps = 2000.0;
  spec.deflatable = true;
  spec.priority = 0.4;
  virt::Domain domain = conn.define_and_start(spec);

  // Tell the guest model what the application is doing: ~2.5 cores of load
  // and a 9 GiB resident set. Hotplug safety thresholds derive from this.
  domain.vm().set_cpu_load(2.5);
  domain.vm().set_rss(9.0 * 1024.0);

  std::cout << "booted: " << domain.name() << " -> "
            << domain.vm().effective_allocation() << "\n";

  // Deflate to 45% of the spec with the hybrid mechanism: hotplug down to
  // the guest-safe level, multiplexing covers the rest.
  mech::HybridDeflation hybrid;
  const auto report = hybrid.apply(domain, spec.vector() * 0.55);
  const auto info = domain.info();
  std::cout << "deflated to 45%:\n"
            << "  effective allocation: " << report.achieved << "\n"
            << "  guest-visible vCPUs:  " << info.online_vcpus << " of "
            << info.max_vcpus << " (cgroup quota "
            << info.cpu_quota_cores << " cores)\n"
            << "  guest-visible memory: " << info.memory_mib << " MiB (limit "
            << info.memory_limit_mib << " MiB)\n"
            << "  swap pressure:        "
            << domain.vm().memory_swap_pressure() << "\n";

  // The same controller machinery a cluster node runs: make room for an
  // incoming 24-core on-demand VM by deflating residents policy-driven.
  core::LocalDeflationController controller(
      hypervisor, core::make_policy(core::PolicyKind::Proportional),
      std::make_shared<mech::HybridDeflation>());
  const auto outcome =
      controller.make_room_for({46.0, 120.0 * 1024.0, 0.0, 0.0});
  std::cout << "make_room_for(46 cores / 120 GiB): "
            << (outcome.success ? "ok" : "failed") << ", reclaimed "
            << outcome.reclaimed << "\n";

  // Reinflate once the pressure is gone.
  hybrid.apply(domain, spec.vector());
  std::cout << "reinflated: " << domain.vm().effective_allocation()
            << " (deflation fraction "
            << domain.vm().max_deflation_fraction() << ")\n";
  return 0;
}
