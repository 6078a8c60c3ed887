#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cluster/partitions.hpp"
#include "cluster/pricing.hpp"

namespace cl = deflate::cluster;

TEST(Partitions, SinglePoolOwnsAllServers) {
  const auto partitions = cl::ClusterPartitions::single_pool(7);
  EXPECT_EQ(partitions.pool_count(), 1U);
  EXPECT_EQ(partitions.pool(0), (cl::ServerRange{0, 7}));
}

TEST(Partitions, EveryServerAssignedExactlyOnce) {
  // The pools are disjoint, ascending, non-empty id ranges that together
  // cover [0, n): each pool starts where the previous one ends.
  const std::vector<std::pair<std::size_t, std::vector<double>>> configs{
      {10, {0.5, 0.2, 0.2, 0.1}},
      {5, {0.97, 0.01, 0.01, 0.01}},
      {1, {1.0}},
      {1000, {0.3, 0.1, 0.25, 0.2, 0.15}}};
  for (const auto& [servers, weights] : configs) {
    const cl::ClusterPartitions partitions(servers, weights);
    ASSERT_EQ(partitions.pool_count(), weights.size());
    std::size_t next = 0;
    for (std::size_t k = 0; k < partitions.pool_count(); ++k) {
      const cl::ServerRange pool = partitions.pool(k);
      EXPECT_EQ(pool.first, next) << servers << " servers, pool " << k;
      EXPECT_LT(pool.first, pool.last) << servers << " servers, pool " << k;
      next = pool.last;
    }
    EXPECT_EQ(next, servers);
  }
}

TEST(Partitions, SplitTracksWeights) {
  const cl::ClusterPartitions partitions(20, {0.5, 0.25, 0.25});
  EXPECT_EQ(partitions.pool(0).size(), 10U);
  EXPECT_EQ(partitions.pool(1).size(), 5U);
  EXPECT_EQ(partitions.pool(2).size(), 5U);
}

TEST(Partitions, EveryPoolGetsAtLeastOneServer) {
  const cl::ClusterPartitions partitions(5, {0.97, 0.01, 0.01, 0.01});
  for (std::size_t k = 0; k < 4; ++k) EXPECT_GE(partitions.pool(k).size(), 1U);
}

TEST(Partitions, RejectsInvalidConfigs) {
  EXPECT_THROW(cl::ClusterPartitions(2, {0.5, 0.3, 0.2}), std::invalid_argument);
  EXPECT_THROW(cl::ClusterPartitions(5, {}), std::invalid_argument);
  EXPECT_THROW(cl::ClusterPartitions(5, {0.0, 0.0}), std::invalid_argument);
}

TEST(Partitions, PoolForPriorityMapping) {
  // Pool 0 = on-demand; deflatable pools split (0,1] by priority.
  EXPECT_EQ(cl::pool_for_priority(false, 1.0, 5), 0U);
  EXPECT_EQ(cl::pool_for_priority(true, 0.2, 5), 1U);
  EXPECT_EQ(cl::pool_for_priority(true, 0.4, 5), 2U);
  EXPECT_EQ(cl::pool_for_priority(true, 0.6, 5), 3U);
  EXPECT_EQ(cl::pool_for_priority(true, 0.8, 5), 4U);
  EXPECT_EQ(cl::pool_for_priority(true, 1.0, 5), 4U);  // clamped to top pool
  EXPECT_EQ(cl::pool_for_priority(true, 0.9, 1), 0U);  // unpartitioned
}

TEST(Pricing, SchemeNames) {
  EXPECT_STREQ(cl::pricing_scheme_name(cl::PricingScheme::Static), "static");
  EXPECT_STREQ(cl::pricing_scheme_name(cl::PricingScheme::PriorityBased),
               "priority-based");
  EXPECT_STREQ(cl::pricing_scheme_name(cl::PricingScheme::AllocationBased),
               "allocation-based");
}

TEST(Pricing, StaticIsDiscountedCommitted) {
  cl::RevenueTotals totals;
  totals.od_committed_core_hours = 1000.0;
  totals.df_committed_core_hours = 500.0;
  EXPECT_DOUBLE_EQ(cl::deflatable_revenue(totals, cl::PricingScheme::Static),
                   0.2 * 500.0);
  EXPECT_DOUBLE_EQ(cl::on_demand_revenue(totals), 1000.0);
}

TEST(Pricing, PriorityUsesWeightedCommitted) {
  cl::RevenueTotals totals;
  totals.df_committed_core_hours = 500.0;
  totals.df_priority_committed_core_hours = 250.0;  // mean priority 0.5
  EXPECT_DOUBLE_EQ(
      cl::deflatable_revenue(totals, cl::PricingScheme::PriorityBased), 250.0);
}

TEST(Pricing, AllocationBasedBillsActualAllocation) {
  cl::RevenueTotals totals;
  totals.df_committed_core_hours = 500.0;
  totals.df_allocated_core_hours = 300.0;  // deflated 40% on average
  EXPECT_DOUBLE_EQ(
      cl::deflatable_revenue(totals, cl::PricingScheme::AllocationBased),
      0.2 * 300.0);
}

TEST(Pricing, IncreasePercentRelativeToOnDemand) {
  cl::RevenueTotals totals;
  totals.od_committed_core_hours = 1000.0;
  totals.df_committed_core_hours = 750.0;
  EXPECT_DOUBLE_EQ(
      cl::revenue_increase_percent(totals, cl::PricingScheme::Static), 15.0);
}

TEST(Pricing, IncreaseZeroWithoutOnDemandRevenue) {
  cl::RevenueTotals totals;
  totals.df_committed_core_hours = 750.0;
  EXPECT_DOUBLE_EQ(
      cl::revenue_increase_percent(totals, cl::PricingScheme::Static), 0.0);
}

TEST(Pricing, TotalsAccumulate) {
  cl::RevenueTotals a, b;
  a.od_committed_core_hours = 10.0;
  a.df_allocated_core_hours = 5.0;
  b.od_committed_core_hours = 7.0;
  b.df_priority_committed_core_hours = 2.0;
  a += b;
  EXPECT_DOUBLE_EQ(a.od_committed_core_hours, 17.0);
  EXPECT_DOUBLE_EQ(a.df_allocated_core_hours, 5.0);
  EXPECT_DOUBLE_EQ(a.df_priority_committed_core_hours, 2.0);
}

TEST(Pricing, AllocationNeverExceedsStaticForDeflatedVms) {
  // Allocation-based billing is static billing discounted by deflation:
  // with any deflation, allocated < committed.
  cl::RevenueTotals totals;
  totals.df_committed_core_hours = 500.0;
  totals.df_allocated_core_hours = 420.0;
  EXPECT_LT(cl::deflatable_revenue(totals, cl::PricingScheme::AllocationBased),
            cl::deflatable_revenue(totals, cl::PricingScheme::Static));
}
