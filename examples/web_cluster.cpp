// Deflation-aware web cluster (Fig. 1's full loop): three Wikipedia
// replicas behind a smooth-WRR balancer; the per-server deflation
// controller notifies the balancer, which re-weights by the replicas'
// true (deflated) capacity — the §7.3 HAProxy modification.
//
//   $ ./build/examples/web_cluster
#include <iostream>
#include <memory>
#include <vector>

#include "core/local_controller.hpp"
#include "workloads/load_balancer.hpp"

int main() {
  using namespace deflate;

  // One server hosting three 10-core web replica VMs.
  hv::Host host(0, {48.0, 128.0 * 1024.0, 4000.0, 40000.0});
  core::LocalDeflationController controller(
      host, core::make_policy(core::PolicyKind::Proportional),
      std::make_shared<mech::HybridDeflation>());

  std::vector<hv::Vm*> replicas;
  for (std::uint64_t i = 0; i < 3; ++i) {
    hv::VmSpec spec;
    spec.id = i;
    spec.name = "wiki-" + std::to_string(i);
    spec.vcpus = 10;
    spec.memory_mib = 10 * 1024.0;
    spec.deflatable = i < 2;  // §7.3: two of three replicas deflatable
    spec.priority = 0.4;
    replicas.push_back(&host.add_vm(spec));
  }

  // The balancer starts with equal weights; controller notifications keep
  // them equal to each replica's effective vCPU count.
  wl::SmoothWrr balancer({10.0, 10.0, 10.0});
  controller.subscribe([&](const hv::Vm& vm, const res::ResourceVector&,
                           const res::ResourceVector& new_alloc) {
    auto weights = balancer.weights();
    weights[vm.spec().id] = new_alloc[res::Resource::Cpu];
    balancer.set_weights(weights);
    std::cout << "  [notify] " << vm.spec().name << " now "
              << new_alloc[res::Resource::Cpu] << " cores -> weights {"
              << weights[0] << ", " << weights[1] << ", " << weights[2]
              << "}\n";
  });

  auto request_share = [&](const char* when) {
    std::vector<int> hits(3, 0);
    for (int i = 0; i < 3000; ++i) ++hits[balancer.pick()];
    std::cout << when << ": request split = " << hits[0] / 30 << "% / "
              << hits[1] / 30 << "% / " << hits[2] / 30 << "%\n";
  };
  request_share("undeflated");

  // Resource pressure: an incoming 24-core VM forces deflation of the two
  // deflatable replicas; the balancer shifts load to the on-demand one.
  std::cout << "pressure: incoming 24-core on-demand VM\n";
  const auto outcome = controller.make_room_for({24.0, 48.0 * 1024.0, 0, 0});
  std::cout << "reclamation " << (outcome.success ? "succeeded" : "failed")
            << "\n";
  request_share("deflated");

  // Quantify the end-to-end benefit with the Fig. 19 experiment.
  wl::LbConfig config;
  config.duration = sim::SimTime::from_seconds(120);
  const wl::LbExperiment experiment(config);
  const auto vanilla = experiment.run(0.6, /*deflation_aware=*/false);
  const auto aware = experiment.run(0.6, /*deflation_aware=*/true);
  std::cout << "at 60% deflation: p90 " << vanilla.latency.p90
            << "s (vanilla WRR) vs " << aware.latency.p90
            << "s (deflation-aware)\n";
  return 0;
}
