#include "cluster/placement.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

namespace deflate::cluster {

namespace {

/// Four per-resource columns of the scan table, read from one row on:
/// row(j) is the vector of row `first + j`. The feasibility mask and the
/// builtin scorers read a block through it, every column of a row
/// together, so the column streams advance in lockstep; the mask and
/// fitness row loops vectorize.
class ColumnBlock {
 public:
  using Columns = std::array<std::vector<double>, res::kNumResources>;

  ColumnBlock(const Columns& columns, std::size_t first) noexcept {
    for (std::size_t k = 0; k < res::kNumResources; ++k) {
      columns_[k] = columns[k].data() + first;
    }
  }

  [[nodiscard]] res::ResourceVector row(std::size_t j) const noexcept {
    return {columns_[0][j], columns_[1][j], columns_[2][j], columns_[3][j]};
  }

 private:
  std::array<const double*, res::kNumResources> columns_{};
};

// --- scoring kernels --------------------------------------------------------
//
// The one definition of each score's arithmetic: HostScanTable::set_row
// caches availability_kernel per row, and the builtins' score_rows feed
// the other kernels from those columns, row by row of a contiguous range.

/// §5.2: A_j = Total - Used + deflatable_j / overcommitted_j. A server at
/// or below full commitment divides by 1 (no discount); overcommitted
/// servers see their deflatable headroom count for less, steering new VMs
/// toward less-loaded servers.
res::ResourceVector availability_kernel(const res::ResourceVector& available,
                                        const res::ResourceVector& deflatable,
                                        double overcommit_ratio) noexcept {
  const double overcommit_divisor = std::max(1.0, overcommit_ratio);
  return (available + deflatable * (1.0 / overcommit_divisor))
      .clamped_nonneg();
}

/// Cosine similarity of demand and availability.
double fitness_kernel(const DemandTerms& terms,
                      const res::ResourceVector& availability,
                      double availability_norm) noexcept {
  constexpr double kEps = 1e-12;
  const double denom = terms.norm * availability_norm;
  return terms.demand.dot(availability) / (denom > kEps ? denom : kEps);
}

/// Magnitude-aware fitness for placements that *require* deflation:
/// capacity-normalized availability projected onto the demand direction
/// (normalizing by capacity makes cores and MiB commensurate). Cosine
/// similarity is scale-invariant, so by itself it cannot express the
/// paper's "prefers servers with lower overcommitment" behaviour; ranking
/// pressured placements by projected availability spreads the reclamation
/// across the servers with the most deflatable headroom, keeping per-VM
/// deflation shallow (§5.2; Tetris [19], which the paper builds on, scores
/// with the dot product for the same reason).
double pressure_kernel(const DemandTerms& terms,
                       const res::ResourceVector& availability) noexcept {
  res::ResourceVector avail_n;
  for (const res::Resource r : res::all_resources) {
    if (terms.capacity[r] <= 0.0) continue;
    avail_n[r] = availability[r] / terms.capacity[r];
  }
  if (terms.normalized_norm <= 1e-12) return avail_n.norm();
  return terms.normalized.dot(avail_n) / terms.normalized_norm;
}

/// Capacity-normalized leftover mass after placing the demand; the
/// BestFit/WorstFit score.
double leftover_kernel(const DemandTerms& terms,
                       const res::ResourceVector& availability) noexcept {
  res::ResourceVector leftover_n;
  for (const res::Resource r : res::all_resources) {
    if (terms.capacity[r] <= 0.0) continue;
    leftover_n[r] = (availability[r] - terms.demand[r]) / terms.capacity[r];
  }
  return leftover_n.clamped_nonneg().norm();
}

}  // namespace

DemandTerms::DemandTerms(const res::ResourceVector& demand_in,
                         const res::ResourceVector& capacity_in) noexcept
    : demand(demand_in), capacity(capacity_in), norm(demand_in.norm()) {
  for (const res::Resource r : res::all_resources) {
    if (capacity[r] <= 0.0) continue;
    normalized[r] = demand[r] / capacity[r];
  }
  normalized_norm = normalized.norm();
}

const char* placement_strategy_name(PlacementStrategy s) noexcept {
  switch (s) {
    case PlacementStrategy::Fitness: return "fitness";
    case PlacementStrategy::FirstFit: return "first-fit";
    case PlacementStrategy::BestFit: return "best-fit";
    case PlacementStrategy::WorstFit: return "worst-fit";
  }
  return "?";
}

// --- builtin scorers --------------------------------------------------------

namespace {

void leftover_rows(const DemandTerms& terms, const HostScanTable& table,
                   std::size_t first, std::span<double> scores) {
  const ColumnBlock availability(table.availability, first);
  for (std::size_t j = 0; j < scores.size(); ++j) {
    scores[j] = leftover_kernel(terms, availability.row(j));
  }
}

/// §5.2 cosine fitness; the magnitude-aware projection under pressure.
class FitnessScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  void score_rows(const DemandTerms& terms, const HostScanTable& table,
                  std::size_t first, std::size_t count, bool under_pressure,
                  std::span<double> scores) const override {
    const ColumnBlock availability(table.availability, first);
    if (under_pressure) {
      for (std::size_t j = 0; j < count; ++j) {
        scores[j] = pressure_kernel(terms, availability.row(j));
      }
      return;
    }
    const double* norms = table.availability_norm.data() + first;
    for (std::size_t j = 0; j < count; ++j) {
      scores[j] = fitness_kernel(terms, availability.row(j), norms[j]);
    }
  }
};

/// Lowest feasible host id: every row scores 0, so the id tie-break alone
/// decides (scan_pick_host skips the call for Order::ById).
class FirstFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override { return Order::ById; }
  void score_rows(const DemandTerms&, const HostScanTable&, std::size_t,
                  std::size_t count, bool,
                  std::span<double> scores) const override {
    std::fill_n(scores.begin(), count, 0.0);
  }
};

class BestFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::LowerBetter;
  }
  void score_rows(const DemandTerms& terms, const HostScanTable& table,
                  std::size_t first, std::size_t count, bool,
                  std::span<double> scores) const override {
    leftover_rows(terms, table, first, scores.first(count));
  }
};

class WorstFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  void score_rows(const DemandTerms& terms, const HostScanTable& table,
                  std::size_t first, std::size_t count, bool,
                  std::span<double> scores) const override {
    leftover_rows(terms, table, first, scores.first(count));
  }
};

const FitnessScorer kFitnessScorer;
const FirstFitScorer kFirstFitScorer;
const BestFitScorer kBestFitScorer;
const WorstFitScorer kWorstFitScorer;

/// Non-owning handle to a static builtin (registry factories return
/// shared_ptr so plugins may hand out owned instances).
std::shared_ptr<const PlacementScorer> borrow(const PlacementScorer& scorer) {
  return {std::shared_ptr<const PlacementScorer>{}, &scorer};
}

}  // namespace

void PlacementSurface::register_builtins(
    policy::PolicyRegistry<PlacementSurface>& registry) {
  registry.add("fitness",
               "cosine fitness vs deflation-aware availability (paper §5.2); "
               "pressure-aware",
               [] { return borrow(kFitnessScorer); });
  registry.add("first-fit", "lowest feasible host id",
               [] { return borrow(kFirstFitScorer); });
  registry.add("best-fit", "least leftover capacity (tightest pack)",
               [] { return borrow(kBestFitScorer); });
  registry.add("worst-fit", "most leftover capacity (max spreading)",
               [] { return borrow(kWorstFitScorer); });
}

std::shared_ptr<const PlacementScorer> make_placement_scorer(
    const std::string& name) {
  const auto* entry = PlacementRegistry::instance().find(name);
  if (entry == nullptr) {
    throw std::invalid_argument(
        "unknown placement policy '" + name + "' (expected " +
        policy::joined_policy_names<PlacementSurface>() + ")");
  }
  return entry->make();
}

// --- SoA scan table ---------------------------------------------------------

void HostScanTable::resize(std::size_t servers) {
  for (auto& column : available) column.assign(servers, 0.0);
  for (auto& column : deflatable) column.assign(servers, 0.0);
  for (auto& column : availability) column.assign(servers, 0.0);
  overcommit.assign(servers, 0.0);
  availability_norm.assign(servers, 0.0);
  eligible.assign(servers, 1);
}

void HostScanTable::set_row(std::size_t i,
                            const res::ResourceVector& available_i,
                            const res::ResourceVector& deflatable_i,
                            double overcommit_i) noexcept {
  const res::ResourceVector a =
      availability_kernel(available_i, deflatable_i, overcommit_i);
  for (const res::Resource r : res::all_resources) {
    const auto k = static_cast<std::size_t>(r);
    available[k][i] = available_i[r];
    deflatable[k][i] = deflatable_i[r];
    availability[k][i] = a[r];
  }
  overcommit[i] = overcommit_i;
  availability_norm[i] = a.norm();
}

res::ResourceVector HostScanTable::available_of(std::size_t i) const noexcept {
  return {available[0][i], available[1][i], available[2][i], available[3][i]};
}

res::ResourceVector HostScanTable::deflatable_of(std::size_t i) const noexcept {
  return {deflatable[0][i], deflatable[1][i], deflatable[2][i],
          deflatable[3][i]};
}

res::ResourceVector HostScanTable::availability_of(
    std::size_t i) const noexcept {
  return {availability[0][i], availability[1][i], availability[2][i],
          availability[3][i]};
}

// --- deterministic strategy scan --------------------------------------------

namespace {

/// Rows per feasibility mask and per score_rows call.
constexpr std::size_t kBlock = 128;

/// One mask lane per row, as wide as a column value so that the mask
/// updates vectorize alongside the double compares.
using Mask = std::uint64_t;

/// Marks each row of [first, first + count) that the scan must skip:
/// ineligible, or failing the pass's feasibility test — free capacity
/// alone, or the shortfall covered by the deflatable column, each with a
/// 1e-9 epsilon, resource by resource. Branch-free over the contiguous
/// columns, so it vectorizes. Returns whether any row is left feasible.
bool reject_mask(const HostScanTable& table, const res::ResourceVector& demand,
                 ScanFeasibility feasibility, std::size_t first,
                 std::size_t count, Mask* reject) noexcept {
  const std::uint8_t* eligible = table.eligible.data() + first;
  const ColumnBlock available(table.available, first);
  if (feasibility == ScanFeasibility::FreeCapacity) {
    for (std::size_t j = 0; j < count; ++j) {
      const res::ResourceVector a = available.row(j);
      Mask m = eligible[j] == 0 ? 1 : 0;
      for (const res::Resource r : res::all_resources) {
        m = demand[r] > a[r] + 1e-9 ? 1 : m;
      }
      reject[j] = m;
    }
  } else {
    const ColumnBlock deflatable(table.deflatable, first);
    for (std::size_t j = 0; j < count; ++j) {
      const res::ResourceVector a = available.row(j);
      const res::ResourceVector headroom = deflatable.row(j);
      Mask m = eligible[j] == 0 ? 1 : 0;
      for (const res::Resource r : res::all_resources) {
        const double need = demand[r] - a[r];
        const double shortfall = need < 0.0 ? 0.0 : need;
        m = shortfall > headroom[r] + 1e-9 ? 1 : m;
      }
      reject[j] = m;
    }
  }
  Mask all = 1;
  for (std::size_t j = 0; j < count; ++j) all &= reject[j];
  return all == 0;
}

}  // namespace

std::optional<std::size_t> scan_pick_host(const PlacementScorer& scorer,
                                          const res::ResourceVector& demand,
                                          const HostScanTable& table,
                                          std::size_t first, std::size_t last,
                                          ScanFeasibility feasibility,
                                          bool under_pressure) {
  const PlacementScorer::Order order = scorer.order();
  const bool higher = order == PlacementScorer::Order::HigherBetter;
  const DemandTerms terms(demand, table.capacity);
  std::array<Mask, kBlock> reject{};
  std::array<double, kBlock> scores{};
  std::optional<std::size_t> best;
  double best_score = 0.0;
  for (std::size_t block = first; block < last; block += kBlock) {
    const std::size_t count = std::min(kBlock, last - block);
    if (!reject_mask(table, demand, feasibility, block, count,
                     reject.data())) {
      continue;
    }
    std::size_t lo = 0;
    while (reject[lo] != 0) ++lo;
    // Ids ascend, so the first feasible row is the lowest id.
    if (order == PlacementScorer::Order::ById) return block + lo;
    std::size_t hi = count;
    while (reject[hi - 1] != 0) --hi;
    // One call scores the block's span of feasible rows, masked rows
    // included; their scores are never read.
    scorer.score_rows(terms, table, block + lo, hi - lo, under_pressure,
                      std::span<double>(scores.data(), hi - lo));
    // Ids ascend, so (score, lowest id) keeps the incumbent on a tie:
    // replace it only on a strictly better score.
    for (std::size_t j = lo; j < hi; ++j) {
      if (reject[j] != 0) continue;
      const double score = scores[j - lo];
      if (!best || (higher ? score > best_score : score < best_score)) {
        best = block + j;
        best_score = score;
      }
    }
  }
  return best;
}

// --- per-demand selection index ---------------------------------------------

namespace {

/// Tree entry of a range holding no feasible row.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

HostSelector::HostSelector(std::shared_ptr<const PlacementScorer> scorer)
    : scorer_(std::move(scorer)),
      higher_better_(scorer_->order() ==
                     PlacementScorer::Order::HigherBetter),
      indexable_(scorer_->order() != PlacementScorer::Order::ById) {}

void HostSelector::resize(std::size_t servers,
                          const res::ResourceVector& capacity) {
  table_.capacity = capacity;
  table_.resize(servers);
  keys_.clear();
  seen_.clear();
}

void HostSelector::mark_dirty(std::size_t i) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  for (Key& key : keys_) key.dirty[i / 64] |= bit;
}

void HostSelector::set_row(std::size_t i,
                           const res::ResourceVector& available_i,
                           const res::ResourceVector& deflatable_i,
                           double overcommit_i) noexcept {
  table_.set_row(i, available_i, deflatable_i, overcommit_i);
  mark_dirty(i);
}

void HostSelector::set_eligible(std::size_t i, bool eligible) noexcept {
  table_.eligible[i] = eligible ? 1 : 0;
  mark_dirty(i);
}

std::uint32_t HostSelector::winner(const Key& key, std::uint32_t a,
                                   std::uint32_t b) const noexcept {
  if (a == kNone) return b;
  if (b == kNone) return a;
  const double score_a = key.scores[a];
  const double score_b = key.scores[b];
  // The scan's (score, lowest id) order: equal scores go to the lower id.
  if (score_a == score_b) return std::min(a, b);
  return (higher_better_ ? score_a > score_b : score_a < score_b) ? a : b;
}

HostSelector::Key* HostSelector::find_or_admit(
    const KeyId& id, const res::ResourceVector& demand) const {
  for (Key& key : keys_) {
    if (key.id == id) return &key;
  }
  if (keys_.size() == kMaxKeys) return nullptr;
  const auto seen = std::find(seen_.begin(), seen_.end(), id);
  if (seen == seen_.end()) {
    // First request: remember it, and let the scan answer.
    if (seen_.size() == kMaxKeys) seen_.erase(seen_.begin());
    seen_.push_back(id);
    return nullptr;
  }
  seen_.erase(seen);
  // Build the key as an update with every row dirty.
  const std::size_t n = table_.size();
  std::vector<std::uint64_t> dirty((n + 63) / 64, ~std::uint64_t{0});
  if (n % 64 != 0) dirty.back() = (std::uint64_t{1} << (n % 64)) - 1;
  return &keys_.emplace_back(Key{id, DemandTerms(demand, table_.capacity),
                                 /*saw_nan=*/false,
                                 std::vector<double>(n, 0.0),
                                 std::vector<std::uint32_t>(2 * n, kNone),
                                 std::move(dirty)});
}

void HostSelector::refresh(Key& key) const {
  const auto n = static_cast<std::uint32_t>(table_.size());
  level_.clear();
  for (std::size_t word = 0; word < key.dirty.size(); ++word) {
    for (std::uint64_t bits = std::exchange(key.dirty[word], 0); bits != 0;
         bits &= bits - 1) {
      const auto row =
          static_cast<std::uint32_t>(word * 64 + std::countr_zero(bits));
      std::uint64_t reject = 0;
      std::uint32_t leaf = kNone;
      if (reject_mask(table_, key.terms.demand, key.id.feasibility, row, 1,
                      &reject)) {
        scorer_->score_rows(key.terms, table_, row, 1, key.id.under_pressure,
                            std::span<double>(&key.scores[row], 1));
        key.saw_nan = key.saw_nan || std::isnan(key.scores[row]);
        leaf = row;
      }
      key.tree[n + row] = leaf;
      level_.push_back(n + row);
    }
  }
  // Repair the ancestors one tree level at a time, each once. Ascending
  // positions have ascending parents, so duplicates are adjacent. The
  // leaves span at most two depths: the deeper ones are the largest
  // positions, and their parents share the shallower leaves' depth.
  while (!level_.empty() && level_.front() > 1) {
    const auto split = std::lower_bound(level_.begin(), level_.end(),
                                        std::bit_floor(level_.back()));
    parents_.clear();
    for (auto it = split; it != level_.end(); ++it) {
      const std::uint32_t parent = *it / 2;
      if (!parents_.empty() && parents_.back() == parent) continue;
      parents_.push_back(parent);
      key.tree[parent] =
          winner(key, key.tree[2 * parent], key.tree[2 * parent + 1]);
    }
    merged_.clear();
    std::merge(level_.begin(), split, parents_.begin(), parents_.end(),
               std::back_inserter(merged_));
    level_.swap(merged_);
  }
}

std::optional<std::size_t> HostSelector::pick(
    const res::ResourceVector& demand, std::size_t first, std::size_t last,
    ScanFeasibility feasibility, bool under_pressure) const {
  Key* key = nullptr;
  if (indexable_) {
    KeyId id{{}, feasibility, under_pressure};
    for (const res::Resource r : res::all_resources) {
      id.demand_bits[static_cast<std::size_t>(r)] =
          std::bit_cast<std::uint64_t>(demand[r]);
    }
    key = find_or_admit(id, demand);
    if (key != nullptr && !key->saw_nan) refresh(*key);
  }
  if (key == nullptr || key->saw_nan) {
    return scan_pick_host(*scorer_, demand, table_, first, last, feasibility,
                          under_pressure);
  }
  // Bottom-up range query over the leaves [n + first, n + last).
  const std::size_t n = table_.size();
  std::uint32_t best = kNone;
  for (std::size_t lo = n + first, hi = n + last; lo < hi; lo /= 2, hi /= 2) {
    if (lo % 2 == 1) best = winner(*key, best, key->tree[lo++]);
    if (hi % 2 == 1) best = winner(*key, best, key->tree[--hi]);
  }
  if (best == kNone) return std::nullopt;
  return best;
}

}  // namespace deflate::cluster
