// Declarative policy selection: names + parameter overrides for every
// pluggable surface, resolved through the typed registries.
//
// A PolicySet travels on SimConfig. Empty names mean "keep whatever the
// config's enum alias (or, for migration, `strategy_name`) selects" so
// existing configs stay bit-identical; non-empty names are validated
// against the registries up front (validate()) and applied when the
// owning component is constructed.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace deflate::policy {

/// One surface's selection: a registered policy name (or alias) plus
/// optional parameter overrides. Parameter names must match the
/// ParamSpecs the policy registered; values are plain doubles, matching
/// the knobs the builtin configs expose.
struct PolicyChoice {
  std::string name;  ///< empty = surface keeps its legacy default
  std::vector<std::pair<std::string, double>> params;

  [[nodiscard]] bool empty() const noexcept { return name.empty(); }
  /// Value of parameter `key`, or `fallback` when absent.
  [[nodiscard]] double param_or(const std::string& key,
                                double fallback) const noexcept;
};

/// Selections for all six registered surfaces.
struct PolicySet {
  PolicyChoice admission;
  PolicyChoice placement;
  PolicyChoice shard_selection;
  PolicyChoice migration;
  PolicyChoice revocation;
  /// The online control plane's forecast policy (src/control).
  PolicyChoice control;

  [[nodiscard]] bool empty() const noexcept;

  /// One error line per problem, e.g.
  ///   placement: unknown policy 'foo' (expected best-fit|first-fit|...)
  ///   revocation: policy 'poisson' has no parameter 'rate'
  /// Empty vector = the set resolves cleanly against every registry.
  [[nodiscard]] std::vector<std::string> validate() const;
};

}  // namespace deflate::policy
