// Deflation-aware VM placement (§5.2).
//
// Fitness of server j for demand D is the cosine similarity between D and
// the server's availability vector
//   A_j = Total_j - Used_j + deflatable_j / overcommitted_j,
// where deflatable_j is what deflation could reclaim and overcommitted_j
// discounts servers that are already squeezed — preferring less-
// overcommitted servers and thus balancing load (§5.2).
//
// Host selection has one definition and one fast path. scan_pick_host is
// the definition: over one contiguous id range [first, last) of the SoA
// HostScanTable (a partition pool, or the whole table) it walks fixed
// blocks, masks each block branch-free over the contiguous columns
// (ineligible, or failing the pass's feasibility test), and scores every
// block holding a feasible row with one score_rows call. Scorers plug in
// through score_rows alone, and the scan ranks candidates under (score,
// lowest host id) — the only tie contract.
//
// HostSelector is the fast path every placement goes through: both
// feasibility passes of deflation mode, and preemption mode, whose
// manager keeps a second selector with each server's preemptable
// allocation in the deflatable column. It owns its table, and its
// set_row/set_eligible are the table's only writers, so each write marks
// the row dirty in every index key. A key — the demand's bit pattern, the
// pass and the pressure flag — holds one score per row and a bottom-up
// winner tree of row ids; a pick re-scores the key's dirty rows with the
// scan's own mask and score_rows, repairs their ancestors, and answers an
// O(log n) range query. The tree combines two rows as the scan ranks
// them: a feasible row beats none, a strictly better score wins, and
// equal scores go to the lower id, so a pick equals the scan's. The scan
// answers instead for first-fit (Order::ById), for a key's first request,
// for new keys once a selector holds kMaxKeys, and for a key that has
// scored NaN on a feasible row (with NaN the scan's pick is no argmax).
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

/// Placement-strategy ablation (bench/ablation_placement.cpp): the paper's
/// fitness policy vs the classic bin-packing heuristics it competes with
/// (§5.2 "policies such as best-fit or first-fit can be used"). An alias of
/// the placement registry's builtins: configs resolve it through its
/// primary name.
enum class PlacementStrategy { Fitness, FirstFit, BestFit, WorstFit };

/// The registry primary name `s` aliases.
[[nodiscard]] const char* placement_strategy_name(PlacementStrategy s) noexcept;

struct HostScanTable;

/// A placement policy, resolved by registry name: scores rows of the scan
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
  /// block, HostSelector once per re-scored row (count 1), and neither
  /// for Order::ById. The builtins read the table's cached availability
  /// columns.
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

/// Resolves a registered scorer by name; throws std::invalid_argument
/// naming the valid choices when unknown.
[[nodiscard]] std::shared_ptr<const PlacementScorer> make_placement_scorer(
    const std::string& name);

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
    const PlacementScorer& scorer, const res::ResourceVector& demand,
    const HostScanTable& table, std::size_t first, std::size_t last,
    ScanFeasibility feasibility, bool under_pressure);

/// A scan table plus an exact per-demand selection index over it (see the
/// file comment). pick() returns what scan_pick_host returns on the same
/// table, bit for bit. Serial: pick() updates the index, which is mutable
/// state behind a const interface, like a memo.
class HostSelector {
 public:
  /// Index keys one selector holds; later keys use the scan.
  static constexpr std::size_t kMaxKeys = 32;

  /// An empty table; allocates nothing.
  explicit HostSelector(std::shared_ptr<const PlacementScorer> scorer);

  /// Sizes the table to `servers` zeroed, eligible rows of `capacity`
  /// each, and drops every key.
  void resize(std::size_t servers, const res::ResourceVector& capacity);

  /// HostScanTable::set_row, marking the row dirty in every key.
  void set_row(std::size_t i, const res::ResourceVector& available_i,
               const res::ResourceVector& deflatable_i,
               double overcommit_i) noexcept;
  /// Writes the row's eligibility, marking the row dirty in every key.
  void set_eligible(std::size_t i, bool eligible) noexcept;

  /// scan_pick_host(scorer(), demand, table(), first, last, feasibility,
  /// under_pressure), answered from the key's index when it has one.
  [[nodiscard]] std::optional<std::size_t> pick(
      const res::ResourceVector& demand, std::size_t first, std::size_t last,
      ScanFeasibility feasibility, bool under_pressure) const;

  [[nodiscard]] const HostScanTable& table() const noexcept { return table_; }
  [[nodiscard]] const PlacementScorer& scorer() const noexcept {
    return *scorer_;
  }
  /// Keys admitted to the index (at most kMaxKeys), counting any that a
  /// NaN score sent back to the scan.
  [[nodiscard]] std::size_t indexed_keys() const noexcept {
    return keys_.size();
  }

 private:
  /// What a key answers: the demand's bit pattern and the pass.
  struct KeyId {
    std::array<std::uint64_t, res::kNumResources> demand_bits{};
    ScanFeasibility feasibility = ScanFeasibility::FreeCapacity;
    bool under_pressure = false;
    bool operator==(const KeyId&) const = default;
  };
  struct Key {
    KeyId id;
    DemandTerms terms;
    /// Set once a feasible row scored NaN: the key answers by scan.
    bool saw_nan = false;
    std::vector<double> scores;        ///< per row; read for feasible rows
    std::vector<std::uint32_t> tree;   ///< 2n winner ids; leaves at n + row
    std::vector<std::uint64_t> dirty;  ///< one bit per row
  };

  /// The key answering `id`, built on its second request; nullptr when
  /// the scan must answer.
  Key* find_or_admit(const KeyId& id, const res::ResourceVector& demand) const;
  /// Re-scores the key's dirty rows and repairs their ancestors.
  void refresh(Key& key) const;
  [[nodiscard]] std::uint32_t winner(const Key& key, std::uint32_t a,
                                     std::uint32_t b) const noexcept;
  void mark_dirty(std::size_t i) noexcept;

  HostScanTable table_;
  std::shared_ptr<const PlacementScorer> scorer_;
  bool higher_better_;
  bool indexable_;  ///< false for Order::ById
  mutable std::vector<Key> keys_;
  /// Keys requested once and not indexed yet (oldest first).
  mutable std::vector<KeyId> seen_;
  /// refresh's tree positions, one level at a time.
  mutable std::vector<std::uint32_t> level_, parents_, merged_;
};

}  // namespace deflate::cluster
