// DOPE attack demo: mount the paper's adaptive attack (Fig. 12) against a
// firewalled, conventionally power-capped data center and watch it induce
// a power emergency without ever tripping the firewall.
//
//   $ ./dope_attack_demo
#include <iostream>
#include <memory>

#include "attack/dope_attacker.hpp"
#include "attack/profiles.hpp"
#include "cluster/cluster.hpp"
#include "common/table.hpp"
#include "metrics/timeline.hpp"
#include "schemes/baselines.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace dope;

  sim::Engine engine;
  const auto catalog = workload::Catalog::standard();

  // The victim: an oversubscribed (Low-PB) cluster protected by a
  // DDoS-deflate-style firewall and a conventional DVFS capping manager —
  // exactly the "defended" deployment the paper argues is insufficient.
  cluster::ClusterConfig config;
  config.num_servers = 8;
  config.budget_level = power::BudgetLevel::kLow;
  net::FirewallConfig firewall;
  firewall.threshold_rps = 150.0;
  firewall.check_interval = 5 * kSecond;
  config.firewall = firewall;
  cluster::Cluster cluster(engine, catalog, config);
  cluster.install_scheme(std::make_unique<schemes::CappingScheme>());

  // Legitimate background traffic.
  workload::GeneratorConfig normal;
  normal.name = "normal-users";
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 300.0;
  normal.num_sources = 256;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());

  // The adversary: a 64-agent botnet running the adaptive DOPE loop,
  // flooding the profiled high-power URLs.
  attack::DopeAttackerConfig attacker_config;
  attacker_config.mixture =
      attack::attack_mixture(attack::AttackKind::kDopeKMeans);
  attacker_config.num_agents = 64;
  attack::DopeAttacker attacker(engine, catalog, attacker_config,
                                cluster.edge_sink());
  cluster.add_record_listener(attacker.feedback_sink());

  // Observe cluster power while the attack unfolds.
  metrics::TimelineRecorder power_probe(
      engine, 5 * kSecond,
      [&cluster] { return cluster.total_power().value(); });

  engine.run_until(8 * kMinute);

  std::cout << "== DOPE attack against a firewalled, capped cluster ==\n\n";
  std::cout << "attack decisions (one per 5 s epoch):\n";
  TextTable trace({"t (s)", "phase", "aggregate rps", "rps/agent"});
  const auto& decisions = attacker.decisions();
  for (std::size_t i = 0; i < decisions.size(); i += 4) {
    const auto& d = decisions[i];
    trace.row(to_seconds(d.at), attack::phase_name(d.phase), d.rate_rps,
              d.rate_rps / attacker_config.num_agents);
  }
  trace.print(std::cout);

  std::cout << "\noutcome:\n";
  TextTable outcome({"metric", "value"});
  outcome.row("attacker converged to",
              attack::phase_name(attacker.phase()));
  outcome.row("final attack rate (rps)", attacker.current_rate());
  outcome.row("firewall bans",
              static_cast<long long>(cluster.data().firewall()->total_bans()));
  outcome.row("budget (W)", cluster.budget().value());
  outcome.row("peak power seen (W)", power_probe.stats().max());
  outcome.row("victim DVFS level (server 0)",
              static_cast<long long>(cluster.server(0).level()));
  outcome.row("normal users' mean latency (ms)",
              cluster.request_metrics().normal_latency_ms().mean());
  outcome.row("normal users' p90 latency (ms)",
              cluster.request_metrics().normal_latency_ms().percentile(90));
  outcome.row("availability",
              cluster.request_metrics().availability());
  outcome.print(std::cout);

  std::cout << "\nThe attacker held every agent below the 150 rps firewall "
               "threshold, yet the\ncluster was forced into deep DVFS "
               "throttling — a denial of power and energy.\n";
  return 0;
}
