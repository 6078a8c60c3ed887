// Deflation-aware VM placement (§5.2).
//
// Fitness of server j for demand D is the cosine similarity between D and
// the server's availability vector
//   A_j = Total_j - Used_j + deflatable_j / overcommitted_j,
// where deflatable_j is what deflation could reclaim and overcommitted_j
// discounts servers that are already squeezed — preferring less-
// overcommitted servers and thus balancing load (§5.2).
//
// There is one selection loop, scan_pick_host, over one data layout, the
// SoA HostScanTable. Every placement goes through it: both feasibility
// passes of deflation mode, and preemption mode, whose manager keeps a
// second table with each server's preemptable allocation in the
// deflatable column. A scan covers one contiguous id range [first, last)
// (a partition pool, or the whole table). It walks the range in fixed
// blocks, masks each block branch-free over the contiguous columns, and
// scores every block holding a feasible row with one score_rows call over
// a contiguous row range. Scorers plug in through score_rows alone, and
// the loop ranks candidates under (score, lowest host id) — the only tie
// contract.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "policy/registry.hpp"
#include "resources/resource_vector.hpp"

namespace deflate::cluster {

/// The demand-only terms of every builtin score, computed once per scan
/// instead of once per candidate.
struct DemandTerms {
  DemandTerms(const res::ResourceVector& demand,
              const res::ResourceVector& capacity) noexcept;

  res::ResourceVector demand;
  res::ResourceVector capacity;    ///< per-server capacity (fleet-uniform)
  double norm = 0.0;               ///< ||d||, the cosine denominator
  res::ResourceVector normalized;  ///< d / capacity (0 where capacity <= 0)
  double normalized_norm = 0.0;    ///< ||d / capacity||
};

/// Placement-strategy ablation (DESIGN.md §5): the paper's fitness policy
/// vs the classic bin-packing heuristics it competes with (§5.2 "policies
/// such as best-fit or first-fit can be used"). Kept as a thin alias over
/// the placement policy registry: every enum value maps to a registered
/// builtin scorer, and all legacy config paths resolve through it.
enum class PlacementStrategy { Fitness, FirstFit, BestFit, WorstFit };

[[nodiscard]] const char* placement_strategy_name(PlacementStrategy s) noexcept;

struct HostScanTable;

/// Strategy object behind PlacementStrategy: scores rows of the scan
/// table; scan_pick_host owns the feasibility mask and the deterministic
/// tie order. Scorers are stateless.
class PlacementScorer {
 public:
  /// How the selection loop ranks scores. ById skips scoring entirely
  /// (FirstFit: lowest host id wins).
  enum class Order { HigherBetter, LowerBetter, ById };

  virtual ~PlacementScorer() = default;

  [[nodiscard]] virtual Order order() const noexcept = 0;

  /// Writes the score of every row in [first, first + count) into
  /// `scores[0, count)`. The range may hold ineligible or infeasible rows:
  /// scan_pick_host masks them and ignores their scores, so a score must
  /// depend on its own row alone. scan_pick_host calls this once per
  /// block, never once per candidate, and never for Order::ById. The
  /// builtins read the table's cached availability columns.
  virtual void score_rows(const DemandTerms& terms, const HostScanTable& table,
                          std::size_t first, std::size_t count,
                          bool under_pressure,
                          std::span<double> scores) const = 0;
};

/// Registry surface for placement scoring policies.
struct PlacementSurface {
  static constexpr const char* kSurfaceName = "placement";
  static constexpr const char* kSurfaceDescription =
      "VM placement scoring over the host scan table";
  using Factory = std::function<std::shared_ptr<const PlacementScorer>()>;
  static void register_builtins(policy::PolicyRegistry<PlacementSurface>&);
};

using PlacementRegistry = policy::PolicyRegistry<PlacementSurface>;

/// The builtin scorer a legacy enum value aliases (static lifetime).
[[nodiscard]] const PlacementScorer& builtin_placement_scorer(
    PlacementStrategy s) noexcept;

/// Resolves a registered scorer by name; throws std::invalid_argument
/// naming the valid choices when unknown.
[[nodiscard]] std::shared_ptr<const PlacementScorer> make_placement_scorer(
    const std::string& name);

/// Reverse mapping for the legacy-enum config surfaces (nullopt for
/// plugin-registered names that have no enum alias).
[[nodiscard]] std::optional<PlacementStrategy> placement_strategy_from_name(
    const std::string& name) noexcept;

/// SoA (structure-of-arrays) per-server scan storage: one dense column per
/// field, indexed by server id. The placement scoring loop and the
/// deflation sweeps read a handful of sequential double streams instead of
/// striding over per-server structs behind pointers, so the hot scan is
/// cache-linear.
///
/// Alongside the raw fields the table caches each row's demand-independent
/// scoring terms: the availability vector A_j and its norm ||A_j||. set_row
/// recomputes them whenever the cluster manager refreshes a server, so a
/// scan scores a candidate from columns instead of re-deriving A_j.
struct HostScanTable {
  /// Fleet-uniform server capacity (every server shares the config's).
  res::ResourceVector capacity;
  std::array<std::vector<double>, res::kNumResources> available;
  /// What the WithDeflation pass may take back: policy-deflatable headroom
  /// in the placement table, preemptable allocation in the eviction table.
  std::array<std::vector<double>, res::kNumResources> deflatable;
  std::vector<double> overcommit;
  /// Cached A_j from (available, deflatable, overcommit), per resource.
  std::array<std::vector<double>, res::kNumResources> availability;
  /// Cached ||A_j||.
  std::vector<double> availability_norm;
  /// active && accepting: the scan considers only eligible servers.
  std::vector<std::uint8_t> eligible;

  void resize(std::size_t servers);
  [[nodiscard]] std::size_t size() const noexcept { return overcommit.size(); }

  /// Writes server `i`'s fields and recomputes its cached terms.
  void set_row(std::size_t i, const res::ResourceVector& available_i,
               const res::ResourceVector& deflatable_i,
               double overcommit_i) noexcept;
  [[nodiscard]] res::ResourceVector available_of(std::size_t i) const noexcept;
  [[nodiscard]] res::ResourceVector deflatable_of(std::size_t i) const noexcept;
  [[nodiscard]] res::ResourceVector availability_of(
      std::size_t i) const noexcept;
};

/// Which feasibility test the scan applies (the two passes of place_vm):
/// free capacity alone, or free capacity plus the deflatable column.
enum class ScanFeasibility { FreeCapacity, WithDeflation };

/// Strategy scan over the rows [first, last) of the SoA table, with
/// `last <= table.size()` (ineligible servers are skipped). Returns the
/// winning *server id*: the feasible row that ranks first under (score,
/// lowest host id), or nullopt when none is feasible.
[[nodiscard]] std::optional<std::size_t> scan_pick_host(
    PlacementStrategy strategy, const res::ResourceVector& demand,
    const HostScanTable& table, std::size_t first, std::size_t last,
    ScanFeasibility feasibility, bool under_pressure);

/// Scorer-driven scan; the enum overload forwards here with the builtin
/// scorer.
[[nodiscard]] std::optional<std::size_t> scan_pick_host(
    const PlacementScorer& scorer, const res::ResourceVector& demand,
    const HostScanTable& table, std::size_t first, std::size_t last,
    ScanFeasibility feasibility, bool under_pressure);

}  // namespace deflate::cluster
