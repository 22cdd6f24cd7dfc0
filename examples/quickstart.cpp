// Quickstart: build a small power-constrained cluster, send it a mixed
// workload, and read back latency / power / energy metrics.
//
//   $ ./quickstart
//
// This walks the open scenario run: a config describes the cluster,
// scheme and traffic, `scenario::Run` assembles them on one simulation
// engine, and the built cluster stays reachable for anything the config
// does not cover.
#include <iostream>

#include "common/table.hpp"
#include "scenario/scenario.hpp"

int main() {
  using namespace dope;

  // 1. A small cluster: 4 leaf nodes of 100 W, a Medium-PB power budget
  //    (85% of aggregate nameplate), and a 2-minute battery.
  scenario::ScenarioConfig config;
  config.num_servers = 4;
  config.budget = power::BudgetLevel::kMedium;
  config.battery_runtime = 2 * kMinute;

  // 2. Pick a power-management scheme. Try kCapping, kToken or
  //    kAntiDope.
  config.scheme = scenario::SchemeKind::kShaving;

  // 3. Normal users: the AliOS blend at 150 requests/second from 64
  //    distinct clients.
  config.normal_rps = 150.0;
  config.normal_sources = 64;
  config.seed = 2024;

  // 4. Build the run and advance it ten simulated minutes.
  scenario::Run run(config);
  run.run_until(10 * kMinute);

  // 5. Read the results: the summary the paper's figures use, plus the
  //    live cluster for what the summary does not carry.
  const auto result = run.summary();
  cluster::Cluster& cluster = run.site().zone(0);

  std::cout << "== quickstart: 4x100 W cluster, Medium-PB, 150 rps ==\n\n";
  TextTable table({"metric", "value"});
  table.row("requests completed",
            static_cast<long long>(result.normal_counts.completed));
  table.row("availability", result.availability);
  table.row("mean latency (ms)", result.mean_ms);
  table.row("p90 latency (ms)", result.p90_ms);
  table.row("p99 latency (ms)", result.p99_ms);
  table.row("power budget (W)", result.budget.value());
  table.row("mean demand last slot (W)",
            cluster.power().last_slot_demand().value());
  table.row("energy from utility (J)", result.energy.utility.value());
  table.row("energy from battery (J)", result.energy.battery.value());
  table.row("battery state of charge", cluster.power().battery()->soc());
  table.row("budget violation slots",
            static_cast<long long>(result.slot_stats.violation_slots));
  table.print(std::cout);

  std::cout << "\nDone. Try raising normal_rps or lowering the budget "
               "level and watch the scheme react.\n";
  return 0;
}
