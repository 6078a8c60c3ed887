#include "cluster/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace res = deflate::res;
namespace util = deflate::util;

namespace {

const res::ResourceVector kCapacity{48.0, 131072.0, 4000.0, 40000.0};

/// A scan table with one row per entry of `available`, written through
/// set_row (the cluster manager's refresh path); every row eligible.
cl::HostScanTable make_table(const std::vector<res::ResourceVector>& available,
                             const res::ResourceVector& deflatable = {},
                             double overcommit = 0.5) {
  cl::HostScanTable table;
  table.capacity = kCapacity;
  table.resize(available.size());
  for (std::size_t i = 0; i < available.size(); ++i) {
    table.set_row(i, available[i], deflatable, overcommit);
  }
  return table;
}

std::vector<std::size_t> all_rows(const cl::HostScanTable& table) {
  std::vector<std::size_t> rows(table.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

/// Fitness scores of every row, from one score_rows call.
std::vector<double> fitness_scores(const res::ResourceVector& demand,
                                   const cl::HostScanTable& table,
                                   bool under_pressure = false) {
  std::vector<double> scores(table.size());
  cl::builtin_placement_scorer(cl::PlacementStrategy::Fitness)
      .score_rows(cl::DemandTerms(demand, kCapacity), table, all_rows(table),
                  under_pressure, scores);
  return scores;
}

std::optional<std::size_t> pick_free(const res::ResourceVector& demand,
                                     const cl::HostScanTable& table) {
  return cl::scan_pick_host(cl::PlacementStrategy::Fitness, demand, table,
                            all_rows(table), cl::ScanFeasibility::FreeCapacity,
                            /*under_pressure=*/false);
}

}  // namespace

TEST(Placement, AvailabilityIncludesDeflatableHeadroom) {
  const auto table = make_table({{8.0, 16384.0, 100.0, 1000.0}},
                                {8.0, 8192.0, 0.0, 0.0}, /*overcommit=*/0.5);
  const auto a = table.availability_of(0);
  // Overcommit <= 1 divides by 1: plain sum.
  EXPECT_DOUBLE_EQ(a.cpu(), 16.0);
  EXPECT_DOUBLE_EQ(a.memory(), 24576.0);
}

TEST(Placement, OvercommitDiscountsHeadroom) {
  const auto table = make_table({{8.0, 0.0, 0.0, 0.0}}, {8.0, 0.0, 0.0, 0.0},
                                /*overcommit=*/2.0);
  EXPECT_DOUBLE_EQ(table.availability_of(0).cpu(), 8.0 + 8.0 / 2.0);
}

TEST(Placement, FitnessPrefersMatchingShape) {
  const res::ResourceVector cpu_heavy_demand(16.0, 8192.0, 0.0, 0.0);
  const auto table = make_table({{32.0, 16384.0, 0.0, 0.0},    // cpu-rich
                                 {4.0, 120000.0, 0.0, 0.0}});  // mem-rich
  const auto scores = fitness_scores(cpu_heavy_demand, table);
  EXPECT_GT(scores[0], scores[1]);
}

TEST(Placement, PicksHighestFitnessFeasibleHost) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  // Every row fits the demand in free capacity; only the shape differs.
  const auto table = make_table({
      {12.0, 100000.0, 0.0, 0.0},  // memory-skewed
      {40.0, 20000.0, 0.0, 0.0},   // cpu-skewed
      {16.0, 32768.0, 0.0, 0.0},   // exact shape match
  });
  const auto best = pick_free(demand, table);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 2U);
}

TEST(Placement, SkipsInfeasibleHosts) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  auto table = make_table({
      {16.0, 32768.0, 0.0, 0.0},  // exact shape, but ineligible
      {4.0, 8192.0, 0.0, 0.0},    // exact shape, but too small
      {12.0, 80000.0, 0.0, 0.0},  // poor shape, feasible
  });
  table.eligible[0] = 0;
  const auto best = pick_free(demand, table);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 2U);
}

TEST(Placement, NoFeasibleHostReturnsNullopt) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  auto table =
      make_table({{48.0, 131072.0, 0.0, 0.0}, {4.0, 8192.0, 0.0, 0.0}});
  table.eligible[0] = 0;
  EXPECT_FALSE(pick_free(demand, table));
  EXPECT_FALSE(cl::scan_pick_host(cl::PlacementStrategy::Fitness, demand,
                                  table, {}, cl::ScanFeasibility::FreeCapacity,
                                  /*under_pressure=*/false));
}

TEST(Placement, ZeroAvailabilityGuarded) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  const auto table = make_table({{}}, {}, /*overcommit=*/3.0);
  // Fitness must be finite (the paper's epsilon guard), pressured or not.
  for (const bool pressure : {false, true}) {
    EXPECT_TRUE(std::isfinite(fitness_scores(demand, table, pressure)[0]));
  }
}

TEST(Placement, LoadBalancingAcrossEqualHosts) {
  // §5.2: among equally-shaped hosts, the one with more headroom (less
  // overcommitted) should win via the deflatable/overcommit term.
  const res::ResourceVector available{8.0, 16384.0, 0.0, 0.0};
  const res::ResourceVector deflatable{4.0, 8192.0, 0.0, 0.0};
  auto table = make_table({available, available}, deflatable, 2.0);
  table.set_row(1, available, deflatable, 1.0);
  // Same available and deflatable, but host 1 is less overcommitted, so its
  // availability vector is larger in the demand direction... cosine cannot
  // distinguish pure scale, so verify the vectors themselves.
  const auto a0 = table.availability_of(0);
  const auto a1 = table.availability_of(1);
  EXPECT_GT(a1.cpu(), a0.cpu());
  EXPECT_GT(a1.memory(), a0.memory());
}

// --- scan vs naive reference ------------------------------------------------

namespace {

/// A random scan table written through set_row (the path the cluster
/// manager's view refresh takes), mixing ordinary rows with the edge cases
/// the scan must agree on: all-zero availability, exact duplicates of the
/// previous row (score ties) and ineligible rows.
cl::HostScanTable random_table(util::Rng& rng, std::size_t servers) {
  cl::HostScanTable table;
  table.capacity = kCapacity;
  table.resize(servers);
  for (std::size_t i = 0; i < servers; ++i) {
    const double kind = rng.u01();
    if (kind < 0.1 && i > 0) {
      table.set_row(i, table.available_of(i - 1), table.deflatable_of(i - 1),
                    table.overcommit[i - 1]);
    } else if (kind < 0.2) {
      table.set_row(i, {}, rng.bernoulli(0.5) ? kCapacity * 0.25
                                              : res::ResourceVector{},
                    rng.uniform(0.0, 3.0));
    } else {
      res::ResourceVector available, deflatable;
      for (const res::Resource r : res::all_resources) {
        available[r] = rng.uniform(0.0, kCapacity[r]);
        deflatable[r] = rng.uniform(0.0, 0.5 * kCapacity[r]);
      }
      table.set_row(i, available, deflatable, rng.uniform(0.2, 2.5));
    }
    table.eligible[i] = rng.bernoulli(0.85) ? 1 : 0;
  }
  return table;
}

res::ResourceVector random_demand(util::Rng& rng) {
  res::ResourceVector demand;
  const double scale = rng.bernoulli(0.5) ? 0.1 : 0.6;
  for (const res::Resource r : res::all_resources) {
    if (rng.bernoulli(0.15)) continue;  // some zero dimensions
    demand[r] = rng.uniform(0.0, scale * kCapacity[r]);
  }
  return demand;
}

/// Naive reference for scan_pick_host: mask each candidate by eligibility
/// and the per-row all_leq feasibility test, score it through a 1-row
/// score_rows call, and keep the argmax under (score, lowest id).
std::optional<std::size_t> reference_pick(
    const cl::PlacementScorer& scorer, const res::ResourceVector& demand,
    const cl::HostScanTable& table, const std::vector<std::size_t>& candidates,
    cl::ScanFeasibility feasibility, bool under_pressure) {
  const cl::DemandTerms terms(demand, table.capacity);
  const cl::PlacementScorer::Order order = scorer.order();
  std::optional<std::size_t> best;
  double best_score = 0.0;
  for (const std::size_t i : candidates) {
    const res::ResourceVector available = table.available_of(i);
    const bool fits =
        feasibility == cl::ScanFeasibility::FreeCapacity
            ? demand.all_leq(available, 1e-9)
            : (demand - available).clamped_nonneg().all_leq(
                  table.deflatable_of(i), 1e-9);
    if (table.eligible[i] == 0 || !fits) continue;
    double score = 0.0;
    const std::size_t row[] = {i};
    scorer.score_rows(terms, table, row, under_pressure, {&score, 1});
    bool better = !best || i < *best;
    if (best && order != cl::PlacementScorer::Order::ById &&
        score != best_score) {
      better = order == cl::PlacementScorer::Order::HigherBetter
                   ? score > best_score
                   : score < best_score;
    }
    if (better) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

/// A plugin-style scorer: implements score_rows only, over a raw column.
class MostFreeMemoryScorer final : public cl::PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  void score_rows(const cl::DemandTerms&, const cl::HostScanTable& table,
                  std::span<const std::size_t> servers, bool,
                  std::span<double> scores) const override {
    const auto memory = static_cast<std::size_t>(res::Resource::Memory);
    for (std::size_t k = 0; k < servers.size(); ++k) {
      scores[k] = table.available[memory][servers[k]];
    }
  }
};

}  // namespace

TEST(PlacementScan, CachedColumnsMatchTheAvailabilityFormula) {
  util::Rng rng(5);
  const cl::HostScanTable table = random_table(rng, 500);
  for (std::size_t i = 0; i < table.size(); ++i) {
    // §5.2, in the same operation order as the kernel set_row caches.
    const res::ResourceVector a =
        (table.available_of(i) +
         table.deflatable_of(i) * (1.0 / std::max(1.0, table.overcommit[i])))
            .clamped_nonneg();
    EXPECT_EQ(table.availability_of(i), a) << "row " << i;
    EXPECT_EQ(table.availability_norm[i], a.norm()) << "row " << i;
  }
}

TEST(PlacementScan, PicksTheSameServerAsTheNaiveReference) {
  const MostFreeMemoryScorer plugin;
  std::vector<const cl::PlacementScorer*> scorers{&plugin};
  for (const auto strategy :
       {cl::PlacementStrategy::Fitness, cl::PlacementStrategy::FirstFit,
        cl::PlacementStrategy::BestFit, cl::PlacementStrategy::WorstFit}) {
    scorers.push_back(&cl::builtin_placement_scorer(strategy));
  }

  util::Rng rng(11);
  std::size_t compared = 0, placed = 0;
  // 1500 rows span several 128-row scoring blocks.
  for (const std::size_t servers : {1U, 7U, 60U, 1500U}) {
    for (int trial = 0; trial < 12; ++trial) {
      const cl::HostScanTable table = random_table(rng, servers);
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < servers; ++i) {
        if (trial % 3 != 0 || rng.bernoulli(0.6)) candidates.push_back(i);
      }
      // The winner must not depend on candidate order.
      if (trial % 4 == 1) std::reverse(candidates.begin(), candidates.end());
      const res::ResourceVector demand = random_demand(rng);
      for (const cl::PlacementScorer* scorer : scorers) {
        for (const auto feasibility : {cl::ScanFeasibility::FreeCapacity,
                                       cl::ScanFeasibility::WithDeflation}) {
          for (const bool pressure : {false, true}) {
            const auto expected = reference_pick(
                *scorer, demand, table, candidates, feasibility, pressure);
            const auto got = cl::scan_pick_host(*scorer, demand, table,
                                                candidates, feasibility,
                                                pressure);
            EXPECT_EQ(got, expected)
                << "servers " << servers << " trial " << trial
                << " pressure " << pressure;
            ++compared;
            if (expected) ++placed;
          }
        }
      }
    }
  }
  // The comparison is not vacuous: most scans find a server.
  EXPECT_GT(placed, compared / 2);
}
