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

#include "attack/dope_attacker.hpp"
#include "bench/bench_util.hpp"

using namespace dope;

namespace {

struct Outcome {
  bool attacker_believes_success = false;
  double final_rate = 0.0;
  std::uint64_t firewall_bans = 0;
  double normal_p90 = 0.0;
  double attack_mean_ms = 0.0;
};

Outcome run(scenario::SchemeKind scheme) {
  auto config = bench::eval_scenario(scheme, power::BudgetLevel::kLow,
                                     /*attack_rps=*/0.0);
  config.seed = 11;
  net::FirewallConfig firewall;
  firewall.threshold_rps = 150.0;
  firewall.check_interval = 5 * kSecond;
  config.firewall = firewall;
  scenario::Run run(config);
  cluster::Cluster& cluster = run.site().zone(0);

  attack::DopeAttackerConfig attacker_config;
  attacker_config.mixture = bench::heavy_blend();
  attacker_config.num_agents = 64;
  attack::DopeAttacker attacker(run.engine(), run.catalog(), attacker_config,
                                run.site().edge_sink());
  cluster.add_record_listener(attacker.feedback_sink());

  run.run_until(config.duration);
  const auto r = run.summary();

  Outcome out;
  out.attacker_believes_success = attacker.emergency_achieved();
  out.final_rate = attacker.current_rate();
  out.firewall_bans = cluster.data().firewall()->total_bans();
  out.normal_p90 = r.p90_ms;
  out.attack_mean_ms = r.attack_mean_ms;
  return out;
}

}  // namespace

DOPE_BENCH_FIGURE(adaptive_vs_defense, "Adaptive attack vs. defenses",
                  "Does the Fig. 12 attacker succeed — and does it know?") {
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

  figure.shape(
      "against Capping the adaptive attacker finds a real emergency "
      "(believes success AND normal users suffer)",
      capping.attacker_believes_success && capping.normal_p90 > 500.0);
  figure.shape(
      "the attacker always stays under the firewall's radar",
      capping.firewall_bans == 0 && antidope.firewall_bans == 0);
  figure.shape(
      "against Anti-DOPE the attacker is deceived: it sees its own "
      "requests crawl and holds, yet normal users are fine",
      antidope.attacker_believes_success &&
          antidope.attack_mean_ms > 500.0 && antidope.normal_p90 < 50.0);
}
