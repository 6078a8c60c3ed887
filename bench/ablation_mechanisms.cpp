// Ablation: which deflation mechanism the cluster's local controllers
// drive. Hybrid reaches fractional targets exactly;
// pure explicit hotplug is coarse (whole vCPUs, memory blocks, guest
// refusals, no I/O path) and therefore under-reclaims, which surfaces as
// placement failures under pressure.
#include <iostream>

#include "cluster_bench.hpp"

int main() {
  using namespace deflate;
  bench::print_header(
      "Ablation: cluster-level mechanism choice at 50% overcommitment",
      "hybrid == transparent reach (fine-grained), explicit under-reclaims "
      "(coarse units + safety floors -> failures)");

  const auto records = bench::cluster_trace();
  const auto base = bench::base_sim_config();
  const std::size_t baseline_servers =
      simcluster::TraceDrivenSimulator::minimum_feasible_servers(records, base);
  const std::size_t servers = bench::servers_for(baseline_servers, 0.5);
  std::cout << "trace: " << records.size() << " VMs, " << servers
            << " servers (50% overcommit)\n\n";

  std::vector<bench::SweepCase> cases;
  const mech::MechanismKind kinds[] = {
      mech::MechanismKind::Hybrid, mech::MechanismKind::Transparent,
      mech::MechanismKind::Explicit, mech::MechanismKind::Balloon};
  for (const auto kind : kinds) {
    bench::SweepCase c;
    c.config = base;
    c.config.mechanism = kind;
    c.config.server_count = servers;
    cases.push_back(c);
  }
  bench::run_sweep(records, cases);

  util::Table table({"mechanism", "failure_prob_%", "throughput_loss_%",
                     "mean_deflation_%", "reclamation_attempts"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& metrics = cases[i].metrics;
    table.add_row_labeled(mech::mechanism_kind_name(kinds[i]),
                          {100.0 * metrics.failure_probability,
                           100.0 * metrics.throughput_loss,
                           100.0 * metrics.mean_cpu_deflation,
                           static_cast<double>(metrics.reclamation_attempts)},
                          2);
  }
  table.print(std::cout);
  return 0;
}
