// Ablation: placement heuristic. §5.2 notes that
// "policies such as best-fit or first-fit can be used"; the paper's
// fitness policy adds shape matching and the deflatable/overcommitted
// load-balancing term.
#include <iostream>

#include "cluster_bench.hpp"

int main() {
  using namespace deflate;
  bench::print_header(
      "Ablation: placement strategy at 50% overcommitment",
      "fitness placement balances deflation pressure across servers; "
      "first/best-fit concentrate it and deflate resident VMs deeper");

  const auto records = bench::cluster_trace();
  const auto base = bench::base_sim_config();
  const std::size_t baseline_servers =
      simcluster::TraceDrivenSimulator::minimum_feasible_servers(records, base);
  const std::size_t servers = bench::servers_for(baseline_servers, 0.5);
  std::cout << "trace: " << records.size() << " VMs, " << servers
            << " servers (50% overcommit)\n\n";

  const cluster::PlacementStrategy strategies[] = {
      cluster::PlacementStrategy::Fitness, cluster::PlacementStrategy::FirstFit,
      cluster::PlacementStrategy::BestFit, cluster::PlacementStrategy::WorstFit};

  std::vector<bench::SweepCase> cases;
  for (const auto strategy : strategies) {
    bench::SweepCase c;
    c.config = base;
    c.config.placement = strategy;
    c.config.server_count = servers;
    cases.push_back(c);
  }
  bench::run_sweep(records, cases);

  util::Table table({"strategy", "failure_prob_%", "throughput_loss_%",
                     "mean_deflation_%"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& metrics = cases[i].metrics;
    table.add_row_labeled(cluster::placement_strategy_name(strategies[i]),
                          {100.0 * metrics.failure_probability,
                           100.0 * metrics.throughput_loss,
                           100.0 * metrics.mean_cpu_deflation},
                          2);
  }
  table.print(std::cout);
  return 0;
}
