#include "mechanisms/mechanism.hpp"

namespace deflate::mech {

std::unique_ptr<DeflationMechanism> make_mechanism(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::Transparent:
      return std::make_unique<TransparentDeflation>();
    case MechanismKind::Explicit: return std::make_unique<ExplicitDeflation>();
    case MechanismKind::Hybrid: return std::make_unique<HybridDeflation>();
    case MechanismKind::Balloon: return std::make_unique<BalloonDeflation>();
  }
  return std::make_unique<HybridDeflation>();
}

const char* mechanism_kind_name(MechanismKind kind) noexcept {
  switch (kind) {
    case MechanismKind::Transparent: return "transparent";
    case MechanismKind::Explicit: return "explicit";
    case MechanismKind::Hybrid: return "hybrid";
    case MechanismKind::Balloon: return "balloon";
  }
  return "?";
}

res::ResourceVector DeflationMechanism::clamp_target(
    const hv::Vm& vm, const res::ResourceVector& target) noexcept {
  return target.clamped_nonneg().elementwise_min(vm.spec().vector());
}

MechanismReport DeflationMechanism::finish(
    const hv::Vm& vm, const res::ResourceVector& target) noexcept {
  MechanismReport report;
  report.target = target;
  report.achieved = vm.effective_allocation();
  report.plugged = vm.plugged();
  constexpr double kTol = 1e-6;
  report.met_target = true;
  for (const res::Resource r : res::all_resources) {
    if (report.achieved[r] > target[r] + kTol ||
        report.achieved[r] < target[r] - kTol) {
      report.met_target = false;
      break;
    }
  }
  return report;
}

}  // namespace deflate::mech
