// Migration-cost scenario: the paper's headline argument, reproduced.
//
// Deflation beats checkpoint/migration for transient revocations *because*
// migration has a real time cost: streaming a VM's memory over a finite
// link takes longer than the provider's revocation warning. This bench
// runs the same trace, fleet and revocation schedule under shrinking
// warning times with three timed strategies (src/cluster/migration):
//
//   * migration — full-footprint pre-copy; VMs that cannot finish
//     streaming before the warning expires are lost;
//   * deflation — the VM deflates first and streams only the deflated
//     footprint, fitting warnings full-size migration cannot;
//   * hybrid    — deflation + checkpointing: whatever still misses the
//     deadline is checkpointed and relaunched (possibly deflated) on a
//     surviving server, trading kills for downtime.
//
// Gates (exit 1 on regression; CI smokes this binary):
//   1. at the shortest warning, deflation kills strictly fewer VMs and
//      loses less throughput than pure migration;
//   2. the hybrid kills no more than deflation (expected: zero);
//   3. `--migration-bandwidth 0`-style instant migration (the sentinel)
//      is bit-identical to the legacy free re-place path.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cluster_bench.hpp"
#include "transient/revocation.hpp"

namespace {

using namespace deflate;

/// Migration registry names, in sweep order.
constexpr const char* kStrategies[] = {"migrate", "deflate", "hybrid"};

}  // namespace

int main() {
  bench::print_header(
      "Scenario: migration time cost under shrinking revocation warnings",
      "with a finite streaming bandwidth, pure migration loses the VMs "
      "that cannot finish inside the warning; deflation shrinks the "
      "footprint to fit, and the deflation+checkpointing hybrid saves the "
      "rest at a downtime cost");

  const auto records = bench::cluster_trace();
  auto base = bench::base_sim_config();
  // 20% headroom below peak so migrations have somewhere to land.
  base.server_count = simcluster::TraceDrivenSimulator::servers_for_overcommit(
      records, base.server_capacity, -0.2);
  base.market_enabled = true;
  base.market.seed = 7;
  base.market.revocation.model =
      transient::RevocationModel::TemporallyConstrained;
  base.market.portfolio.on_demand_floor = 0.2;
  std::cout << "trace: " << records.size() << " VMs, fleet "
            << base.server_count
            << " servers; temporally-constrained revocations, 256 MiB/s "
               "link, 64 MiB/s dirty rate\n\n";

  // Instant-sentinel baseline: bandwidth 0 must reproduce the legacy
  // free-re-place path exactly, warning or not.
  auto legacy = base;
  auto sentinel = base;
  sentinel.market.revocation.warning_hours = 120.0 / 3600.0;
  sentinel.migration.model.bandwidth_mib_per_sec = 0.0;

  const std::vector<double> warnings_secs{600.0, 240.0, 120.0, 60.0};
  std::vector<bench::SweepCase> cases;
  cases.push_back({0.0, legacy, {}});
  cases.push_back({0.0, sentinel, {}});
  for (const double warning : warnings_secs) {
    for (const char* strategy : kStrategies) {
      bench::SweepCase c;
      c.config = base;
      c.config.market.revocation.warning_hours = warning / 3600.0;
      c.config.migration.model.bandwidth_mib_per_sec = 256.0;
      c.config.migration.model.dirty_mib_per_sec = 64.0;
      c.config.migration.strategy_name = strategy;
      cases.push_back(c);
    }
  }
  bench::run_sweep(records, cases);

  const auto& legacy_m = cases[0].metrics;
  const auto& sentinel_m = cases[1].metrics;

  util::Table table({"warning_s", "strategy", "revocations", "live_migr",
                     "ckpt_restore", "kills", "tput_loss_%", "downtime_h",
                     "fleet_cost"});
  table.add_row({"-", "instant (legacy)",
                 std::to_string(legacy_m.revocations),
                 "-", "-", std::to_string(legacy_m.revocation_kills),
                 util::format_double(100 * legacy_m.throughput_loss, 3),
                 "0", util::format_double(legacy_m.cost.total_cost(), 0)});
  std::size_t case_index = 2;
  for (const double warning : warnings_secs) {
    for (const char* strategy : kStrategies) {
      const auto& m = cases[case_index++].metrics;
      table.add_row({util::format_double(warning, 0), strategy,
                     std::to_string(m.revocations),
                     std::to_string(m.live_migrations),
                     std::to_string(m.checkpoint_restores),
                     std::to_string(m.checkpoint_kills),
                     util::format_double(100 * m.throughput_loss, 3),
                     util::format_double(m.migration_downtime_hours, 2),
                     util::format_double(m.cost.total_cost(), 0)});
    }
  }
  table.print(std::cout);

  // --- gates -----------------------------------------------------------------
  const std::size_t last = cases.size() - 3;  // shortest warning triplet
  const auto& migration = cases[last].metrics;      // kStrategies[0]
  const auto& deflation = cases[last + 1].metrics;  // kStrategies[1]
  const auto& hybrid = cases[last + 2].metrics;     // kStrategies[2]

  const bool sentinel_ok =
      sentinel_m.revocations == legacy_m.revocations &&
      sentinel_m.revocation_migrations == legacy_m.revocation_migrations &&
      sentinel_m.revocation_kills == legacy_m.revocation_kills &&
      sentinel_m.throughput_loss == legacy_m.throughput_loss &&
      sentinel_m.cost.total_cost() == legacy_m.cost.total_cost();
  const bool deflation_ok =
      deflation.checkpoint_kills < migration.checkpoint_kills &&
      deflation.throughput_loss < migration.throughput_loss;
  const bool hybrid_ok = hybrid.checkpoint_kills <= deflation.checkpoint_kills;

  std::cout << "\ninstant sentinel (bandwidth 0) vs legacy path: "
            << (sentinel_ok ? "bit-identical" : "MISMATCH") << "\n"
            << "shortest warning (" << warnings_secs.back() << " s): deflation "
            << (deflation_ok ? "kills fewer VMs and loses less throughput "
                               "than pure migration"
                             : "NO ADVANTAGE over migration — REGRESSION")
            << "\nhybrid at the shortest warning: "
            << hybrid.checkpoint_kills << " kills vs deflation's "
            << deflation.checkpoint_kills
            << (hybrid_ok ? "" : " — REGRESSION") << "\n";
  bench::print_profile();
  return sentinel_ok && deflation_ok && hybrid_ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
