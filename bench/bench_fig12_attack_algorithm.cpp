// Figure 12: the adaptive DOPE attack algorithm.
//
// Runs the closed-loop attacker (probe -> ramp -> hold, backing off on
// detection) against a firewalled, capping-managed cluster and prints its
// decision trace: the rate converges to an effective DOPE below the
// firewall's radar.
#include <iostream>

#include "attack/dope_attacker.hpp"
#include "bench/bench_util.hpp"

using namespace dope;

DOPE_BENCH_FIGURE(fig12_attack_algorithm, "Figure 12",
                  "DOPE attack algorithm convergence") {
  auto base = bench::testbed_scenario(scenario::SchemeKind::kCapping,
                                      power::BudgetLevel::kLow);
  base.duration = 8 * kMinute;
  base.seed = 1;
  base.normal_sources = 128;
  base.battery_runtime = 0;
  net::FirewallConfig firewall;
  firewall.threshold_rps = 150.0;
  firewall.check_interval = 5 * kSecond;
  base.firewall = firewall;
  scenario::Run run(base);
  cluster::Cluster& cluster = run.site().zone(0);

  attack::DopeAttackerConfig config;
  config.mixture = bench::heavy_blend();
  config.num_agents = 32;
  attack::DopeAttacker attacker(run.engine(), run.catalog(), config,
                                run.site().edge_sink());
  cluster.add_record_listener(attacker.feedback_sink());

  run.run_until(base.duration);

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

  figure.shape("the attacker converges to a holding (emergency) state",
               attacker.emergency_achieved());
  figure.shape("the per-agent rate stays under the firewall threshold",
               attacker.current_rate() / config.num_agents <
                   firewall.threshold_rps);
  figure.shape("the firewall never detects the attack",
               cluster.data().firewall()->total_bans() == 0);
  figure.shape("the victim was forced to throttle (power emergency)",
               cluster.server(0).level() < cluster.ladder().max_level() ||
                   cluster.server(3).level() < cluster.ladder().max_level());
}
