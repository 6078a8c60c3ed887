// Transient-market demo: a 40-server cluster rides the spot market with
// the temporally-constrained revocation model of Kadupitiya et al.
// (arXiv:1911.05160), the on-demand/transient mix chosen by the
// mean-variance portfolio of Sharma et al. (arXiv:1704.08738), and
// deflation absorbing the revocations. One scenario spreads the transient
// fleet across three correlated markets (zones); the last one replaces
// the free instant re-place with the *timed* migration engine — a 60 s
// revocation warning and a 256 MiB/s streaming link — so displaced VMs
// pay real stop-and-copy/checkpoint downtime (src/cluster/migration.hpp).
//
//   $ ./build/example_transient_market
#include <iostream>

#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "util/table.hpp"

namespace {

// Three zones with the same temporally-constrained revocation model, price
// shocks correlated at rho = 0.35 plus provider-wide crunches — the
// multi-market configuration mirrored in src/transient/README.md.
void use_three_markets(deflate::simcluster::SimConfig& config) {
  config.market.replicate_markets(3, /*rho=*/0.35, "zone");
  config.market.common_shock_rate_per_hour = 1.0 / 48.0;
}

}  // namespace

int main() {
  using namespace deflate;

  trace::AzureTraceConfig trace_config;
  trace_config.vm_count = 1500;
  trace_config.seed = 11;
  trace_config.duration = sim::SimTime::from_hours(72);
  const auto records = trace::AzureTraceGenerator(trace_config).generate();

  simcluster::SimConfig config;
  config.server_count = 40;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.market_enabled = true;
  config.market.seed = 7;
  config.market.revocation.model =
      transient::RevocationModel::TemporallyConstrained;
  config.market.revocation.max_lifetime_hours = 24.0;
  config.market.portfolio.on_demand_floor = 0.2;
  config.market.portfolio.risk_aversion = 2.0;

  std::cout << "trace: " << records.size() << " VMs over 72h on "
            << config.server_count << " servers (48 CPUs / 128 GB each)\n"
            << "revocation model: temporally-constrained (24h cap), "
               "portfolio-driven capacity mix\n\n";

  struct Row {
    const char* label;
    cluster::ReclamationMode mode;
    bool market;
    bool multi_market = false;
    bool timed_migration = false;
  };
  util::Table table({"scenario", "failure_prob_%", "throughput_loss_%",
                     "revocations", "vm_migrations", "vm_kills",
                     "fleet_cost", "saving_vs_od_%"});
  for (const Row& row : {
           Row{"all on-demand (baseline)", cluster::ReclamationMode::Deflation,
               false},
           Row{"transient + deflation", cluster::ReclamationMode::Deflation,
               true},
           Row{"transient + preemption", cluster::ReclamationMode::Preemption,
               true},
           Row{"transient + deflation, 3 markets",
               cluster::ReclamationMode::Deflation, true, true},
           Row{"transient + hybrid, 60s warning",
               cluster::ReclamationMode::Deflation, true, false, true},
       }) {
    simcluster::SimConfig run_config = config;
    run_config.mode = row.mode;
    run_config.market_enabled = row.market;
    if (row.multi_market) use_three_markets(run_config);
    if (row.timed_migration) {
      run_config.market.revocation.warning_hours = 60.0 / 3600.0;
      run_config.migration.model.bandwidth_mib_per_sec = 256.0;
      run_config.migration.strategy_name = "hybrid";
    }
    simcluster::TraceDrivenSimulator simulator(records, run_config);
    const auto metrics = simulator.run();

    const double fleet_cost =
        row.market ? metrics.cost.total_cost()
                   : static_cast<double>(config.server_count) *
                         config.server_capacity[res::Resource::Cpu] *
                         simcluster::TraceDrivenSimulator::horizon_of(records)
                             .hours();
    const double saving = row.market ? metrics.cost.saving_percent() : 0.0;
    table.add_row({row.label,
                   util::format_double(100 * metrics.failure_probability, 3),
                   util::format_double(100 * metrics.throughput_loss, 3),
                   std::to_string(metrics.revocations),
                   std::to_string(metrics.revocation_migrations),
                   std::to_string(metrics.revocation_kills),
                   util::format_double(fleet_cost, 0),
                   util::format_double(saving, 1)});
  }
  table.print(std::cout);

  std::cout << "\nThe portfolio buys most of the fleet on the spot market, "
               "cutting cost vs the\nall-on-demand baseline, while deflation "
               "migrates VMs off revoked servers\ninstead of killing them "
               "(compare vm_kills across the two transient rows).\nThe "
               "3-market row spreads that transient fleet across correlated "
               "zones so one\nzone's capacity crunch no longer hits every "
               "transient server at once\n(bench/scenario_multimarket "
               "quantifies the cost-variance reduction).\nThe last row "
               "prices migration honestly: a 60 s warning and a finite "
               "link mean\ndisplaced VMs pay stop-and-copy/checkpoint "
               "downtime, folded into the fleet cost\n"
               "(bench/scenario_migration sweeps warning times and "
               "strategies).\n";
  return 0;
}
