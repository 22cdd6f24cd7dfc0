// Quickstart: build a small power-constrained cluster, send it a mixed
// workload, and read back latency / power / energy metrics.
//
//   $ ./quickstart
//
// This walks the public API at its lowest useful level — engine, cluster,
// scheme, traffic generator — without the scenario convenience layer, so
// you can see where each moving part attaches.
#include <iostream>
#include <memory>

#include "cluster/cluster.hpp"
#include "common/table.hpp"
#include "schemes/baselines.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace dope;

  // 1. One simulation engine drives everything.
  sim::Engine engine;

  // 2. The standard EC request catalog (Table 1 of the paper).
  const auto catalog = workload::Catalog::standard();

  // 3. A small cluster: 4 leaf nodes of 100 W, a Medium-PB power budget
  //    (85% of aggregate nameplate), and a 2-minute battery.
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.budget_level = power::BudgetLevel::kMedium;
  config.battery_runtime = 2 * kMinute;
  cluster::Cluster cluster(engine, catalog, config);

  // 4. Pick a power-management scheme. Try swapping this for
  //    CappingScheme, TokenScheme, or antidope::AntiDopeScheme.
  cluster.install_scheme(std::make_unique<schemes::ShavingScheme>());

  // 5. Normal users: the AliOS blend at 150 requests/second from 64
  //    distinct clients.
  workload::GeneratorConfig traffic;
  traffic.name = "normal-users";
  traffic.mixture = workload::Mixture::alios_normal();
  traffic.rate_rps = 150.0;
  traffic.num_sources = 64;
  traffic.seed = 2024;
  workload::TrafficGenerator generator(engine, catalog, traffic,
                                       cluster.edge_sink());

  // 6. Run ten simulated minutes.
  cluster.run_for(10 * kMinute);

  // 7. Read the results.
  const auto& metrics = cluster.request_metrics();
  const auto& latency = metrics.normal_latency_ms();

  std::cout << "== quickstart: 4x100 W cluster, Medium-PB, 150 rps ==\n\n";
  TextTable table({"metric", "value"});
  table.row("requests completed",
            static_cast<long long>(metrics.normal_counts().completed));
  table.row("availability", metrics.availability());
  table.row("mean latency (ms)", latency.mean());
  table.row("p90 latency (ms)", latency.percentile(90));
  table.row("p99 latency (ms)", latency.percentile(99));
  table.row("power budget (W)", cluster.budget().value());
  table.row("mean demand last slot (W)",
            cluster.power().last_slot_demand().value());
  table.row("energy from utility (J)",
            cluster.energy_account().utility.value());
  table.row("energy from battery (J)",
            cluster.energy_account().battery.value());
  table.row("battery state of charge", cluster.battery()->soc());
  table.row("budget violation slots",
            static_cast<long long>(cluster.slot_stats().violation_slots));
  table.print(std::cout);

  std::cout << "\nDone. Try raising rate_rps or lowering the budget level "
               "and watch the scheme react.\n";
  return 0;
}
