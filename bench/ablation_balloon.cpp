// Ablation: ballooning vs hotplug-based memory deflation.
//
// The paper's hybrid mechanism uses hot-unplug for guest-visible memory
// reclamation; ballooning is the classic alternative ([47], compared in
// [29] with "generally inferior performance to hotplug"). This harness
// repeats the Fig. 14 SpecJBB memory sweep with the balloon mechanism
// added: page-granular (deflates past the hotplug block/threshold limits)
// but paying a management overhead and getting no guest-assisted gain.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/perf_model.hpp"
#include "hypervisor/host.hpp"
#include "mechanisms/mechanism.hpp"

namespace {

constexpr double kVmMemoryMib = 16384.0;
constexpr double kRssFraction = 0.56;

struct Point {
  double rt = 0.0;
  double guest_visible_mib = 0.0;
};

Point run_point(deflate::mech::DeflationMechanism& mechanism, double deflation,
                const deflate::core::MemoryPerfModel& model) {
  using namespace deflate;
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  hv::VmSpec spec;
  spec.id = 1;
  spec.name = "specjbb";
  spec.vcpus = 8;
  spec.memory_mib = kVmMemoryMib;
  spec.deflatable = true;
  hv::Vm& vm = host.add_vm(spec);
  vm.set_rss(kRssFraction * kVmMemoryMib);

  res::ResourceVector target = spec.vector();
  target[res::Resource::Memory] = kVmMemoryMib * (1.0 - deflation);
  mechanism.apply(vm, target);

  const std::string name = mechanism.name();
  const double pressure = vm.memory_swap_pressure();
  Point point;
  point.guest_visible_mib = vm.guest().usable_memory_mib();
  if (name == "balloon") {
    const double balloon_fraction =
        vm.guest().balloon_mib() / kVmMemoryMib;
    point.rt = model.rt_multiplier_balloon(pressure, balloon_fraction);
  } else {
    const bool guest_assisted =
        name == "hybrid" && vm.guest().plugged_memory_mib() < spec.memory_mib - 1.0;
    point.rt = model.rt_multiplier(pressure, guest_assisted);
  }
  return point;
}

}  // namespace

int main() {
  using namespace deflate;
  bench::print_header(
      "Ablation: memory deflation mechanism (hotplug hybrid vs balloon vs "
      "transparent)",
      "hybrid wins while above the RSS threshold (guest returns pages); "
      "ballooning pays a management overhead that grows with the pinned "
      "fraction [29]");

  const core::MemoryPerfModel model;
  mech::TransparentDeflation transparent;
  mech::HybridDeflation hybrid;
  mech::BalloonDeflation balloon;

  util::Table table({"mem_deflation_%", "transparent_RT", "hybrid_RT",
                     "balloon_RT", "balloon_guest_mem_MiB"});
  for (int d = 0; d <= 45; d += 5) {
    const double deflation = d / 100.0;
    const Point t = run_point(transparent, deflation, model);
    const Point h = run_point(hybrid, deflation, model);
    const Point b = run_point(balloon, deflation, model);
    table.add_row_labeled(std::to_string(d),
                          {t.rt, h.rt, b.rt, b.guest_visible_mib});
  }
  table.print(std::cout);

  std::cout << "\nheadline: in the flat region the balloon runs ~"
            << util::format_double(
                   100.0 * (run_point(balloon, 0.3, model).rt /
                                run_point(hybrid, 0.3, model).rt -
                            1.0),
                   0)
            << "% slower than hybrid hotplug (paper cites [29]: ballooning "
               "inferior to hotplug)\n";
  return 0;
}
