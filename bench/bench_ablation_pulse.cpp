// Ablation: pulsating DOPE vs. steady DOPE.
//
// The Fig. 12 attacker "repeatedly adjusts its request number" — so which
// schedule hurts most per request sent? A plausible guess is a *pulse*
// (strike, let the victim's slow V/F recovery crawl, strike again).
// Measured answer: against a capping defense the *steady* flood is the
// more efficient weapon, because the damage mechanism is a queueing
// collapse that compounds super-linearly with sustained pressure; every
// quiet half-minute lets the backlog drain and resets the spiral. The
// pulse does halve the attacker's cost and still wrecks the tail, but
// watt-for-watt the steady flood wins; Anti-DOPE is indifferent to
// either schedule.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;

namespace {

struct Outcome {
  double mean_ms = 0.0;
  double p90_ms = 0.0;
  std::uint64_t attack_sent = 0;
};

Outcome outcome_of(const scenario::ScenarioResult& r) {
  Outcome out;
  out.mean_ms = r.mean_ms;
  out.p90_ms = r.p90_ms;
  out.attack_sent = r.attack_counts.terminal();
  return out;
}

}  // namespace

DOPE_BENCH_FIGURE(ablation_pulse, "Ablation",
                  "Pulsating vs. steady DOPE (attack efficiency)") {
  // scheme × attack-schedule grid through dope::sweep.
  sweep::GridSpec grid;
  grid.base = bench::eval_scenario(scenario::SchemeKind::kCapping,
                                   power::BudgetLevel::kLow);
  grid.base.duration = 10 * kMinute;
  grid.schemes = {scenario::SchemeKind::kCapping,
                  scenario::SchemeKind::kAntiDope};
  auto steady = sweep::AttackProfile::dope(400.0);
  steady.name = "steady-400";
  auto pulse = sweep::AttackProfile::dope(400.0);
  pulse.name = "pulse-30s-30s";
  // 30 s on / 30 s off.
  for (Time t = 0; t < grid.base.duration; t += kMinute) {
    pulse.rate_plan.push_back({t, 400.0});
    pulse.rate_plan.push_back({t + 30 * kSecond, 0.0});
  }
  grid.attacks = {steady, pulse};
  const auto runs = figure.run_grid(grid);

  const auto capping_steady = outcome_of(runs[0]);
  const auto capping_pulse = outcome_of(runs[1]);
  const auto antidope_steady = outcome_of(runs[2]);
  const auto antidope_pulse = outcome_of(runs[3]);

  TextTable table({"defense", "attack", "normal mean (ms)",
                   "normal p90 (ms)", "attack requests",
                   "damage/request (ms)"});
  const auto damage = [](const Outcome& o) {
    return o.attack_sent == 0
               ? 0.0
               : o.mean_ms / static_cast<double>(o.attack_sent) * 1e3;
  };
  table.row("Capping", "steady 400 rps", capping_steady.mean_ms,
            capping_steady.p90_ms,
            static_cast<long long>(capping_steady.attack_sent),
            damage(capping_steady));
  table.row("Capping", "pulse 30s/30s", capping_pulse.mean_ms,
            capping_pulse.p90_ms,
            static_cast<long long>(capping_pulse.attack_sent),
            damage(capping_pulse));
  table.row("Anti-DOPE", "steady 400 rps", antidope_steady.mean_ms,
            antidope_steady.p90_ms,
            static_cast<long long>(antidope_steady.attack_sent),
            damage(antidope_steady));
  table.row("Anti-DOPE", "pulse 30s/30s", antidope_pulse.mean_ms,
            antidope_pulse.p90_ms,
            static_cast<long long>(antidope_pulse.attack_sent),
            damage(antidope_pulse));
  table.print(std::cout);

  figure.shape(
      "the pulse costs the attacker about half the requests",
      capping_pulse.attack_sent < 0.6 * capping_steady.attack_sent);
  figure.shape(
      "against Capping, sustained pressure compounds: the steady flood "
      "buys more damage per request than the pulse (queues drain during "
      "off phases)",
      damage(capping_steady) > damage(capping_pulse));
  figure.shape(
      "even the half-cost pulse still degrades Capping's tail by an "
      "order of magnitude",
      capping_pulse.p90_ms > 10.0 * antidope_steady.p90_ms);
  figure.shape(
      "Anti-DOPE is insensitive to the attack schedule",
      antidope_pulse.p90_ms < 2.0 * antidope_steady.p90_ms + 10.0);
}
