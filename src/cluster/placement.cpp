#include "cluster/placement.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace deflate::cluster {

namespace {

// --- scoring kernels --------------------------------------------------------
//
// The one definition of each score's arithmetic: HostScanTable::set_row
// caches availability_kernel per row, and the builtins' score_rows read
// those columns through the other kernels.

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
                   std::span<const std::size_t> servers,
                   std::span<double> scores) {
  for (std::size_t k = 0; k < servers.size(); ++k) {
    scores[k] = leftover_kernel(terms, table.availability_of(servers[k]));
  }
}

/// §5.2 cosine fitness; the magnitude-aware projection under pressure.
class FitnessScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  void score_rows(const DemandTerms& terms, const HostScanTable& table,
                  std::span<const std::size_t> servers, bool under_pressure,
                  std::span<double> scores) const override {
    for (std::size_t k = 0; k < servers.size(); ++k) {
      const std::size_t i = servers[k];
      const res::ResourceVector availability = table.availability_of(i);
      scores[k] = under_pressure
                      ? pressure_kernel(terms, availability)
                      : fitness_kernel(terms, availability,
                                       table.availability_norm[i]);
    }
  }
};

/// Lowest feasible host id: every row scores 0, so the id tie-break alone
/// decides (scan_pick_host skips the call for Order::ById).
class FirstFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override { return Order::ById; }
  void score_rows(const DemandTerms&, const HostScanTable&,
                  std::span<const std::size_t>, bool,
                  std::span<double> scores) const override {
    std::fill(scores.begin(), scores.end(), 0.0);
  }
};

class BestFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::LowerBetter;
  }
  void score_rows(const DemandTerms& terms, const HostScanTable& table,
                  std::span<const std::size_t> servers, bool,
                  std::span<double> scores) const override {
    leftover_rows(terms, table, servers, scores);
  }
};

class WorstFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  void score_rows(const DemandTerms& terms, const HostScanTable& table,
                  std::span<const std::size_t> servers, bool,
                  std::span<double> scores) const override {
    leftover_rows(terms, table, servers, scores);
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

const PlacementScorer& builtin_placement_scorer(PlacementStrategy s) noexcept {
  switch (s) {
    case PlacementStrategy::Fitness: return kFitnessScorer;
    case PlacementStrategy::FirstFit: return kFirstFitScorer;
    case PlacementStrategy::BestFit: return kBestFitScorer;
    case PlacementStrategy::WorstFit: return kWorstFitScorer;
  }
  return kFitnessScorer;
}

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

std::optional<PlacementStrategy> placement_strategy_from_name(
    const std::string& name) noexcept {
  for (const PlacementStrategy s :
       {PlacementStrategy::Fitness, PlacementStrategy::FirstFit,
        PlacementStrategy::BestFit, PlacementStrategy::WorstFit}) {
    if (name == placement_strategy_name(s)) return s;
  }
  return std::nullopt;
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

struct ScanBest {
  double score = 0.0;
  std::size_t host = 0;
  bool valid = false;
};

/// Strict total order on (score, host id): the only tie-break contract.
/// Ties break by lowest host id, so the winner does not depend on the
/// order of `candidates`.
bool scan_better(PlacementScorer::Order order, double score, std::size_t host,
                 const ScanBest& best) {
  if (!best.valid) return true;
  switch (order) {
    case PlacementScorer::Order::HigherBetter:
      if (score != best.score) return score > best.score;
      return host < best.host;
    case PlacementScorer::Order::LowerBetter:
      if (score != best.score) return score < best.score;
      return host < best.host;
    case PlacementScorer::Order::ById:
      return host < best.host;
  }
  return false;
}

/// The two feasibility passes over the raw columns, with 1e-9 epsilons:
/// free capacity alone, or the shortfall covered by the deflatable column.
bool row_feasible(const HostScanTable& table, std::size_t server,
                  const res::ResourceVector& demand,
                  ScanFeasibility feasibility) noexcept {
  for (const res::Resource r : res::all_resources) {
    const auto k = static_cast<std::size_t>(r);
    const double available = table.available[k][server];
    if (feasibility == ScanFeasibility::FreeCapacity) {
      if (demand[r] > available + 1e-9) return false;
    } else {
      double need = demand[r] - available;
      if (need < 0.0) need = 0.0;
      if (need > table.deflatable[k][server] + 1e-9) return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::size_t> scan_pick_host(PlacementStrategy strategy,
                                          const res::ResourceVector& demand,
                                          const HostScanTable& table,
                                          std::span<const std::size_t> candidates,
                                          ScanFeasibility feasibility,
                                          bool under_pressure) {
  return scan_pick_host(builtin_placement_scorer(strategy), demand, table,
                        candidates, feasibility, under_pressure);
}

std::optional<std::size_t> scan_pick_host(const PlacementScorer& scorer,
                                          const res::ResourceVector& demand,
                                          const HostScanTable& table,
                                          std::span<const std::size_t> candidates,
                                          ScanFeasibility feasibility,
                                          bool under_pressure) {
  const PlacementScorer::Order order = scorer.order();
  const DemandTerms terms(demand, table.capacity);
  // Feasible rows are gathered into fixed blocks and scored with one
  // score_rows call per block: one virtual call per block, not per
  // candidate.
  constexpr std::size_t kBlock = 128;
  std::array<std::size_t, kBlock> rows{};
  std::array<double, kBlock> scores{};
  ScanBest best;
  std::size_t c = 0;
  while (c < candidates.size()) {
    std::size_t n = 0;
    for (; c < candidates.size() && n < kBlock; ++c) {
      const std::size_t server = candidates[c];
      if (table.eligible[server] && row_feasible(table, server, demand,
                                                 feasibility)) {
        rows[n++] = server;
      }
    }
    if (n == 0) continue;
    const std::span<const std::size_t> block(rows.data(), n);
    if (order != PlacementScorer::Order::ById) {
      scorer.score_rows(terms, table, block, under_pressure,
                        std::span<double>(scores.data(), n));
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (scan_better(order, scores[k], rows[k], best)) {
        best = {scores[k], rows[k], true};
      }
    }
  }
  if (!best.valid) return std::nullopt;
  return best.host;
}

}  // namespace deflate::cluster
