// Deflation-aware VM placement (§5.2).
//
// Fitness of server j for demand D is the cosine similarity between D and
// the server's availability vector
//   A_j = Total_j - Used_j + deflatable_j / overcommitted_j,
// where deflatable_j is what deflation could reclaim and overcommitted_j
// discounts servers that are already squeezed — preferring less-
// overcommitted servers and thus balancing load (§5.2).
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

/// Cheap per-server snapshot maintained by the cluster manager.
struct HostView {
  std::uint64_t host_id = 0;
  res::ResourceVector capacity;
  res::ResourceVector available;   ///< Total - Used (allocation-based)
  res::ResourceVector deflatable;  ///< policy-reclaimable headroom
  double overcommit_ratio = 0.0;   ///< committed / capacity (max of cpu, mem)
  bool feasible = false;           ///< can_fit(demand) on this server
};

/// Availability vector A_j as defined above.
[[nodiscard]] res::ResourceVector availability_vector(const HostView& host);

/// The demand-only terms of every builtin score, computed once per scan
/// (and once per call on the span path) instead of once per candidate.
struct DemandTerms {
  DemandTerms(const res::ResourceVector& demand,
              const res::ResourceVector& capacity) noexcept;

  res::ResourceVector demand;
  res::ResourceVector capacity;    ///< per-server capacity (fleet-uniform)
  double norm = 0.0;               ///< ||d||, the cosine denominator
  res::ResourceVector normalized;  ///< d / capacity (0 where capacity <= 0)
  double normalized_norm = 0.0;    ///< ||d / capacity||
};

/// Fitness score; larger is better.
[[nodiscard]] double fitness(const res::ResourceVector& demand,
                             const HostView& host);

/// Magnitude-aware fitness used when a placement *requires* deflation:
/// the projection of the (per-dimension capacity-normalized) availability
/// vector onto the demand direction. Cosine similarity is scale-invariant,
/// so by itself it cannot express the paper's "prefers servers with lower
/// overcommitment" behaviour; ranking pressured placements by projected
/// availability spreads the reclamation across the servers with the most
/// deflatable headroom, keeping per-VM deflation shallow (§5.2's load
/// balancing intent; Tetris [19], which the paper builds on, scores with
/// the dot product for the same reason).
[[nodiscard]] double pressure_fitness(const res::ResourceVector& demand,
                                      const HostView& host);

/// Index of the feasible host with the highest fitness (ties -> lower
/// host_id), or nullopt if no host is feasible. `under_pressure` selects
/// the magnitude-aware score.
[[nodiscard]] std::optional<std::size_t> pick_best_host(
    const res::ResourceVector& demand, std::span<const HostView> hosts,
    bool under_pressure = false);

/// Placement-strategy ablation (DESIGN.md §5): the paper's fitness policy
/// vs the classic bin-packing heuristics it competes with (§5.2 "policies
/// such as best-fit or first-fit can be used"). Kept as a thin alias over
/// the placement policy registry: every enum value maps to a registered
/// builtin scorer, and all legacy config paths resolve through it.
enum class PlacementStrategy { Fitness, FirstFit, BestFit, WorstFit };

[[nodiscard]] const char* placement_strategy_name(PlacementStrategy s) noexcept;

struct HostScanTable;

/// Strategy object behind PlacementStrategy: scores one (demand, host)
/// pair; the shared selection loops (pick_host / scan_pick_host) own the
/// feasibility mask and the deterministic tie order. Scorers are stateless
/// and shared across threads.
class PlacementScorer {
 public:
  /// How the selection loop ranks scores. ById skips scoring entirely
  /// (FirstFit: lowest host id wins).
  enum class Order { HigherBetter, LowerBetter, ById };

  virtual ~PlacementScorer() = default;

  [[nodiscard]] virtual Order order() const noexcept = 0;

  /// Whether the span-path loop breaks score ties by lower host id.
  /// Historically only Fitness did (BestFit/WorstFit keep the first-seen
  /// winner); the SoA scan path *always* ties by id regardless — its
  /// (score, lowest id) total order is the scan's tie-break contract.
  [[nodiscard]] virtual bool prefer_lower_id_on_tie() const noexcept {
    return false;
  }

  [[nodiscard]] virtual double score(const res::ResourceVector& demand,
                                     const HostView& host,
                                     bool under_pressure) const = 0;

  /// Scan-path scoring: writes the score of each row in `servers` (all
  /// eligible and feasible) into `scores`. scan_pick_host calls this once
  /// per block of candidates, never once per candidate. The default
  /// rebuilds each row's HostView and calls score(), so plugin scorers
  /// work unchanged; the builtins override it to read the table's cached
  /// availability columns through the same kernels score() uses, so both
  /// paths return bit-identical scores.
  virtual void score_rows(const DemandTerms& terms, const HostScanTable& table,
                          std::span<const std::size_t> servers,
                          bool under_pressure, std::span<double> scores) const;
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

/// Strategy-parameterized host selection over the same feasibility mask:
///   FirstFit — lowest host id; BestFit — least leftover capacity (tightest
///   pack); WorstFit — most leftover capacity (max spreading).
[[nodiscard]] std::optional<std::size_t> pick_host(
    PlacementStrategy strategy, const res::ResourceVector& demand,
    std::span<const HostView> hosts, bool under_pressure = false);

/// Scorer-driven selection; the enum overload forwards here with the
/// builtin scorer, bit-identical per strategy.
[[nodiscard]] std::optional<std::size_t> pick_host(
    const PlacementScorer& scorer, const res::ResourceVector& demand,
    std::span<const HostView> hosts, bool under_pressure = false);

/// SoA (structure-of-arrays) per-server scan storage: one dense column per
/// view field, indexed by server id. The placement scoring loop and the
/// deflation sweeps read a handful of sequential double streams instead of
/// striding over per-server structs behind pointers, so the hot scan is
/// cache-linear.
///
/// Alongside the raw view fields the table caches each row's
/// demand-independent scoring terms: the availability vector A_j and its
/// norm ||A_j||. set_row recomputes them whenever the cluster manager
/// refreshes a server's view, so a scan scores a candidate from columns
/// instead of rebuilding a HostView and re-deriving A_j per candidate.
struct HostScanTable {
  /// Fleet-uniform server capacity (every server shares the config's).
  res::ResourceVector capacity;
  std::array<std::vector<double>, res::kNumResources> available;
  std::array<std::vector<double>, res::kNumResources> deflatable;
  std::vector<double> overcommit;
  /// Cached A_j = availability_vector(view_of(i)), per resource.
  std::array<std::vector<double>, res::kNumResources> availability;
  /// Cached ||A_j||.
  std::vector<double> availability_norm;
  /// active && accepting: the scan considers only eligible servers.
  std::vector<std::uint8_t> eligible;

  void resize(std::size_t servers);
  [[nodiscard]] std::size_t size() const noexcept { return overcommit.size(); }

  /// Writes server `i`'s view fields and recomputes its cached terms.
  void set_row(std::size_t i, const res::ResourceVector& available_i,
               const res::ResourceVector& deflatable_i,
               double overcommit_i) noexcept;
  [[nodiscard]] res::ResourceVector available_of(std::size_t i) const noexcept;
  [[nodiscard]] res::ResourceVector deflatable_of(std::size_t i) const noexcept;
  [[nodiscard]] res::ResourceVector availability_of(
      std::size_t i) const noexcept;
  /// Materializes the classic HostView for server `i` (bit-identical to
  /// what the old per-node views held — the columns store the same
  /// doubles), for the cold paths that still want the struct form.
  [[nodiscard]] HostView view_of(std::size_t i) const noexcept;
};

/// Which feasibility test the scan applies (the two passes of place_vm):
/// free capacity alone, or free capacity plus policy-deflatable headroom.
enum class ScanFeasibility { FreeCapacity, WithDeflation };

/// Strategy scan over the SoA table restricted to `candidates` (ineligible
/// servers are skipped). Returns the winning *server id*. Semantics are
/// identical to filtering the candidates and calling pick_host: same
/// feasibility epsilons, same scores, ties broken by lowest host id.
[[nodiscard]] std::optional<std::size_t> scan_pick_host(
    PlacementStrategy strategy, const res::ResourceVector& demand,
    const HostScanTable& table, std::span<const std::size_t> candidates,
    ScanFeasibility feasibility, bool under_pressure);

/// Scorer-driven scan; the enum overload forwards here with the builtin
/// scorer. Ties always break by lowest host id (the scan's total order),
/// independent of the scorer's span-path tie preference.
[[nodiscard]] std::optional<std::size_t> scan_pick_host(
    const PlacementScorer& scorer, const res::ResourceVector& demand,
    const HostScanTable& table, std::span<const std::size_t> candidates,
    ScanFeasibility feasibility, bool under_pressure);

}  // namespace deflate::cluster
