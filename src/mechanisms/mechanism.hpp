// VM deflation mechanisms (§4).
//
// A mechanism moves a VM's *effective allocation* to a target vector, by
// hypervisor-level multiplexing (transparent, §4.2), guest-visible hotplug
// (explicit, §4.3), or the paper's hybrid combination (§4.4, Fig. 13).
// Mechanisms are also used in reverse for reinflation: targets above the
// current allocation re-plug / relax limits.
//
// A mechanism is a fixed sequence of calls to hv::Vm's allocation writers:
// the four cgroup setters (the prototype's libvirt scheduler, memory,
// blkio and interface parameters) and the three guest requests (agent
// vCPU and memory hotplug, the balloon). Each write bumps the host's
// version (vm.hpp), so the order of the calls is part of the contract.
#pragma once

#include <memory>

#include "hypervisor/vm.hpp"
#include "resources/resource_vector.hpp"

namespace deflate::mech {

struct MechanismReport {
  res::ResourceVector target;    ///< requested effective allocation
  res::ResourceVector achieved;  ///< effective allocation after the call
  res::ResourceVector plugged;   ///< guest-visible allocation after the call
  /// True when every dimension reached the target within tolerance. Pure
  /// explicit deflation frequently cannot (coarse units, safety floors,
  /// no disk/net unplug).
  bool met_target = false;
};

class DeflationMechanism {
 public:
  virtual ~DeflationMechanism() = default;

  /// Drives `vm` towards effective allocation `target` (clamped to
  /// [0, spec] per dimension). Returns what actually happened.
  virtual MechanismReport apply(hv::Vm& vm,
                                const res::ResourceVector& target) = 0;

  /// Human-readable mechanism name for logs/benchmarks.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

 protected:
  /// Clamps the request to the spec and fills in the report skeleton.
  static res::ResourceVector clamp_target(const hv::Vm& vm,
                                          const res::ResourceVector& target) noexcept;
  static MechanismReport finish(const hv::Vm& vm,
                                const res::ResourceVector& target) noexcept;
};

/// Transparent deflation: cgroup multiplexing only. Fine-grained, works on
/// all four resources, invisible to the guest (the VM just runs "slower").
class TransparentDeflation final : public DeflationMechanism {
 public:
  MechanismReport apply(hv::Vm& vm,
                        const res::ResourceVector& target) override;
  [[nodiscard]] const char* name() const noexcept override { return "transparent"; }
};

/// Explicit deflation: agent-mediated hotplug only. Guest-visible, coarse
/// units (whole vCPUs, 128 MiB blocks), bounded by guest safety thresholds;
/// disk and network cannot be unplugged (§4.3) and are left at spec.
class ExplicitDeflation final : public DeflationMechanism {
 public:
  MechanismReport apply(hv::Vm& vm,
                        const res::ResourceVector& target) override;
  [[nodiscard]] const char* name() const noexcept override { return "explicit"; }
};

/// Hybrid deflation (Fig. 13): hotplug down to
/// max(get_hp_threshold(), round_up(target)), then multiplex the rest of
/// the way. Gets the guest-cooperation benefits of explicit deflation with
/// the range and granularity of transparent deflation.
class HybridDeflation final : public DeflationMechanism {
 public:
  MechanismReport apply(hv::Vm& vm,
                        const res::ResourceVector& target) override;
  [[nodiscard]] const char* name() const noexcept override { return "hybrid"; }
};

/// Ballooning-based memory deflation (§2/§8: the classic alternative to
/// hotplug [Waldspurger '02]; "generally inferior performance to hotplug"
/// [Liu et al., TPDS'15]). Page-granular — the balloon can squeeze past
/// the hotplug safety threshold into the resident set — but the pinned
/// pages keep stressing the guest's memory management, which the memory
/// performance model charges for (bench/ablation_balloon). CPU and I/O
/// fall back to transparent multiplexing.
class BalloonDeflation final : public DeflationMechanism {
 public:
  MechanismReport apply(hv::Vm& vm,
                        const res::ResourceVector& target) override;
  [[nodiscard]] const char* name() const noexcept override { return "balloon"; }
};

enum class MechanismKind { Transparent, Explicit, Hybrid, Balloon };

[[nodiscard]] std::unique_ptr<DeflationMechanism> make_mechanism(
    MechanismKind kind);
[[nodiscard]] const char* mechanism_kind_name(MechanismKind kind) noexcept;

}  // namespace deflate::mech
