// Closing experiment: the adaptive DOPE attacker (Fig. 12) against each
// defense (Table 2).
//
// The attacker only sees its own requests' fates, so two questions split:
//   1. does the attacker *believe* it caused a power emergency (it holds
//      once its observed latency degrades past the target)?
//   2. did legitimate users actually get hurt?
//
// Against conventional capping both answers are yes. Against Anti-DOPE
// something subtle happens: the attacker's requests land on the isolated
// suspect pool, queue behind each other, and look exactly like a
// successful attack — the attacker holds, satisfied — while normal users
// barely notice. Isolation doubles as deception.
#include <iostream>
#include <memory>

#include "attack/dope_attacker.hpp"
#include "bench/bench_util.hpp"
#include "cluster/cluster.hpp"
#include "workload/generator.hpp"

using namespace dope;

namespace {

struct Outcome {
  bool attacker_believes_success = false;
  double final_rate = 0.0;
  std::uint64_t firewall_bans = 0;
  double normal_p90 = 0.0;
  double attack_mean_ms = 0.0;
  std::uint64_t violation_slots = 0;
};

Outcome run(scenario::SchemeKind scheme) {
  sim::Engine engine;
  const auto catalog = workload::Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cc.budget_level = power::BudgetLevel::kLow;
  cc.battery_runtime = 2 * kMinute;
  net::FirewallConfig firewall;
  firewall.threshold_rps = 150.0;
  firewall.check_interval = 5 * kSecond;
  cc.firewall = firewall;
  cluster::Cluster cluster(engine, catalog, cc);
  cluster.install_scheme(scenario::make_scheme(scheme));

  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 300.0;
  normal.num_sources = 256;
  normal.seed = 23;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());

  attack::DopeAttackerConfig config;
  config.mixture = bench::heavy_blend();
  config.num_agents = 64;
  attack::DopeAttacker attacker(engine, catalog, config,
                                cluster.edge_sink());
  cluster.add_record_listener(attacker.feedback_sink());

  engine.run_until(10 * kMinute);

  Outcome out;
  out.attacker_believes_success = attacker.emergency_achieved();
  out.final_rate = attacker.current_rate();
  out.firewall_bans = cluster.data().firewall()->total_bans();
  out.normal_p90 =
      cluster.request_metrics().normal_latency_ms().percentile(90);
  out.attack_mean_ms =
      cluster.request_metrics().attack_latency_ms().mean();
  out.violation_slots = cluster.slot_stats().violation_slots;
  return out;
}

}  // namespace

int main() {
  bench::figure_header(
      "Adaptive attack vs. defenses",
      "Does the Fig. 12 attacker succeed — and does it know?");

  TextTable table({"defense", "attacker holds?", "final rate (rps)",
                   "fw bans", "attacker sees (ms)", "normal p90 (ms)"});
  Outcome capping, antidope;
  for (const auto scheme :
       {scenario::SchemeKind::kCapping, scenario::SchemeKind::kShaving,
        scenario::SchemeKind::kToken, scenario::SchemeKind::kAntiDope}) {
    const auto out = run(scheme);
    table.row(scenario::scheme_name(scheme),
              out.attacker_believes_success ? "yes" : "no",
              out.final_rate, static_cast<long long>(out.firewall_bans),
              out.attack_mean_ms, out.normal_p90);
    if (scheme == scenario::SchemeKind::kCapping) capping = out;
    if (scheme == scenario::SchemeKind::kAntiDope) antidope = out;
  }
  table.print(std::cout);

  bench::shape(
      "against Capping the adaptive attacker finds a real emergency "
      "(believes success AND normal users suffer)",
      capping.attacker_believes_success && capping.normal_p90 > 500.0);
  bench::shape(
      "the attacker always stays under the firewall's radar",
      capping.firewall_bans == 0 && antidope.firewall_bans == 0);
  bench::shape(
      "against Anti-DOPE the attacker is deceived: it sees its own "
      "requests crawl and holds, yet normal users are fine",
      antidope.attacker_believes_success &&
          antidope.attack_mean_ms > 500.0 && antidope.normal_p90 < 50.0);
  return 0;
}
