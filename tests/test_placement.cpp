#include "cluster/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace res = deflate::res;
namespace util = deflate::util;

namespace {

cl::HostView make_view(std::uint64_t id, res::ResourceVector available,
                       res::ResourceVector deflatable = {},
                       double overcommit = 0.5, bool feasible = true) {
  cl::HostView view;
  view.host_id = id;
  view.capacity = {48.0, 131072.0, 4000.0, 40000.0};
  view.available = available;
  view.deflatable = deflatable;
  view.overcommit_ratio = overcommit;
  view.feasible = feasible;
  return view;
}

}  // namespace

TEST(Placement, AvailabilityIncludesDeflatableHeadroom) {
  const auto view = make_view(0, {8.0, 16384.0, 100.0, 1000.0},
                              {8.0, 8192.0, 0.0, 0.0}, /*overcommit=*/0.5);
  const auto a = cl::availability_vector(view);
  // Overcommit <= 1 divides by 1: plain sum.
  EXPECT_DOUBLE_EQ(a.cpu(), 16.0);
  EXPECT_DOUBLE_EQ(a.memory(), 24576.0);
}

TEST(Placement, OvercommitDiscountsHeadroom) {
  const auto view = make_view(0, {8.0, 0.0, 0.0, 0.0}, {8.0, 0.0, 0.0, 0.0},
                              /*overcommit=*/2.0);
  const auto a = cl::availability_vector(view);
  EXPECT_DOUBLE_EQ(a.cpu(), 8.0 + 8.0 / 2.0);
}

TEST(Placement, FitnessPrefersMatchingShape) {
  const res::ResourceVector cpu_heavy_demand(16.0, 8192.0, 0.0, 0.0);
  const auto cpu_rich = make_view(0, {32.0, 16384.0, 0.0, 0.0});
  const auto mem_rich = make_view(1, {4.0, 120000.0, 0.0, 0.0});
  EXPECT_GT(cl::fitness(cpu_heavy_demand, cpu_rich),
            cl::fitness(cpu_heavy_demand, mem_rich));
}

TEST(Placement, PicksHighestFitnessFeasibleHost) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  std::vector<cl::HostView> hosts{
      make_view(0, {4.0, 100000.0, 0.0, 0.0}),   // memory-skewed
      make_view(1, {16.0, 8000.0, 0.0, 0.0}),    // cpu-skewed
      make_view(2, {8.0, 16384.0, 0.0, 0.0}),    // exact shape match
  };
  const auto best = cl::pick_best_host(demand, hosts);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 2U);
}

TEST(Placement, SkipsInfeasibleHosts) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  std::vector<cl::HostView> hosts{
      make_view(0, {8.0, 16384.0, 0.0, 0.0}, {}, 0.5, /*feasible=*/false),
      make_view(1, {2.0, 80000.0, 0.0, 0.0}, {}, 0.5, /*feasible=*/true),
  };
  const auto best = cl::pick_best_host(demand, hosts);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1U);
}

TEST(Placement, NoFeasibleHostReturnsNullopt) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  std::vector<cl::HostView> hosts{
      make_view(0, {48.0, 131072.0, 0.0, 0.0}, {}, 0.0, /*feasible=*/false)};
  EXPECT_FALSE(cl::pick_best_host(demand, hosts).has_value());
  EXPECT_FALSE(cl::pick_best_host(demand, {}).has_value());
}

TEST(Placement, ZeroAvailabilityGuarded) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  const auto empty = make_view(0, {}, {}, 3.0);
  // Fitness must be finite (the paper's epsilon guard).
  const double f = cl::fitness(demand, empty);
  EXPECT_TRUE(std::isfinite(f));
}

TEST(Placement, LoadBalancingAcrossEqualHosts) {
  // §5.2: among equally-shaped hosts, the one with more headroom (less
  // overcommitted) should win via the deflatable/overcommit term.
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  std::vector<cl::HostView> hosts{
      make_view(0, {8.0, 16384.0, 0.0, 0.0}, {4.0, 8192.0, 0.0, 0.0}, 2.0),
      make_view(1, {8.0, 16384.0, 0.0, 0.0}, {4.0, 8192.0, 0.0, 0.0}, 1.0),
  };
  // Same available and deflatable, but host 1 is less overcommitted, so its
  // availability vector is larger in the demand direction... cosine cannot
  // distinguish pure scale, so verify the vectors themselves.
  const auto a0 = cl::availability_vector(hosts[0]);
  const auto a1 = cl::availability_vector(hosts[1]);
  EXPECT_GT(a1.cpu(), a0.cpu());
  EXPECT_GT(a1.memory(), a0.memory());
}

// --- scan/span parity -------------------------------------------------------

namespace {

const res::ResourceVector kCapacity{48.0, 131072.0, 4000.0, 40000.0};

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

/// The span-path answer for the same question: the candidates' HostViews
/// with the scan's feasibility mask, ranked by pick_host.
std::optional<std::size_t> span_pick(const cl::PlacementScorer& scorer,
                                     const res::ResourceVector& demand,
                                     const cl::HostScanTable& table,
                                     const std::vector<std::size_t>& candidates,
                                     cl::ScanFeasibility feasibility,
                                     bool under_pressure) {
  std::vector<cl::HostView> views;
  for (const std::size_t i : candidates) {
    cl::HostView view = table.view_of(i);
    view.feasible =
        table.eligible[i] != 0 &&
        (feasibility == cl::ScanFeasibility::FreeCapacity
             ? demand.all_leq(view.available, 1e-9)
             : (demand - view.available)
                   .clamped_nonneg()
                   .all_leq(view.deflatable, 1e-9));
    views.push_back(view);
  }
  const auto best = cl::pick_host(scorer, demand, views, under_pressure);
  if (!best) return std::nullopt;
  return views[*best].host_id;
}

/// A plugin-style scorer that only implements score(): the scan reaches it
/// through the default score_rows.
class MostFreeMemoryScorer final : public cl::PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  [[nodiscard]] bool prefer_lower_id_on_tie() const noexcept override {
    return true;
  }
  [[nodiscard]] double score(const res::ResourceVector&,
                             const cl::HostView& host, bool) const override {
    return host.available.memory();
  }
};

}  // namespace

TEST(PlacementScan, CachedColumnsAreBitEqualToTheSpanKernels) {
  util::Rng rng(5);
  const cl::HostScanTable table = random_table(rng, 500);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const res::ResourceVector a = cl::availability_vector(table.view_of(i));
    EXPECT_EQ(table.availability_of(i), a) << "row " << i;
    EXPECT_EQ(table.availability_norm[i], a.norm()) << "row " << i;
  }
}

TEST(PlacementScan, PicksTheSameServerAsTheSpanPath) {
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
      const res::ResourceVector demand = random_demand(rng);
      for (const cl::PlacementScorer* scorer : scorers) {
        for (const auto feasibility : {cl::ScanFeasibility::FreeCapacity,
                                       cl::ScanFeasibility::WithDeflation}) {
          for (const bool pressure : {false, true}) {
            const auto expected = span_pick(*scorer, demand, table, candidates,
                                            feasibility, pressure);
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
