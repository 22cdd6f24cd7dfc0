// Figure 12: the adaptive DOPE attack algorithm.
//
// Runs the closed-loop attacker (probe -> ramp -> hold, backing off on
// detection) against a firewalled, capping-managed cluster and prints its
// decision trace: the rate converges to an effective DOPE below the
// firewall's radar.
#include <iostream>

#include "attack/dope_attacker.hpp"
#include "bench/bench_util.hpp"
#include "cluster/cluster.hpp"
#include "schemes/baselines.hpp"
#include "workload/generator.hpp"

using namespace dope;
using workload::Catalog;

int main() {
  bench::figure_header("Figure 12", "DOPE attack algorithm convergence");

  sim::Engine engine;
  const auto catalog = workload::Catalog::standard();

  cluster::ClusterConfig cc;
  cc.num_servers = 4;
  cc.budget_level = power::BudgetLevel::kLow;
  net::FirewallConfig firewall;
  firewall.threshold_rps = 150.0;
  firewall.check_interval = 5 * kSecond;
  cc.firewall = firewall;
  cluster::Cluster cluster(engine, catalog, cc);
  cluster.install_scheme(std::make_unique<schemes::CappingScheme>());

  // Normal background load.
  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 150.0;
  normal.num_sources = 128;
  normal.seed = 3;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());

  attack::DopeAttackerConfig config;
  config.mixture = bench::heavy_blend();
  config.num_agents = 32;
  config.epoch = 5 * kSecond;
  attack::DopeAttacker attacker(engine, catalog, config,
                                cluster.edge_sink());
  cluster.add_record_listener(attacker.feedback_sink());

  engine.run_until(8 * kMinute);

  TextTable trace({"t (s)", "phase", "rate (rps)", "rate/agent",
                   "block frac", "latency ratio"});
  for (const auto& d : attacker.decisions()) {
    trace.row(to_seconds(d.at), attack::phase_name(d.phase), d.rate_rps,
              d.rate_rps / config.num_agents, d.observed_block_fraction,
              d.observed_latency_ratio);
  }
  trace.print(std::cout);

  std::cout << "\nfinal phase: " << attack::phase_name(attacker.phase())
            << ", final rate: " << attacker.current_rate() << " rps ("
            << attacker.current_rate() / config.num_agents
            << " rps/agent vs " << firewall.threshold_rps
            << " rps threshold)\n";
  std::cout << "firewall bans during the whole campaign: "
            << cluster.data().firewall()->total_bans() << "\n";
  std::cout << "victim cluster throttled down to level "
            << cluster.server(0).level() << " (of "
            << cluster.ladder().max_level() << ")\n";

  bench::shape("the attacker converges to a holding (emergency) state",
               attacker.emergency_achieved());
  bench::shape("the per-agent rate stays under the firewall threshold",
               attacker.current_rate() / config.num_agents <
                   firewall.threshold_rps);
  bench::shape("the firewall never detects the attack",
               cluster.data().firewall()->total_bans() == 0);
  bench::shape("the victim was forced to throttle (power emergency)",
               cluster.server(0).level() < cluster.ladder().max_level() ||
                   cluster.server(3).level() < cluster.ladder().max_level());
  return 0;
}
