// Figure 15: Anti-DOPE allocates power with slight degradation for
// normal users.
//
//  (a) power timeline: low-utilisation EC service, DOPE onset at t=120 s;
//      Anti-DOPE confines/throttles the surge back inside the supply;
//  (b) normal users' response-time statistics under Anti-DOPE with and
//      without the attack (min / mean / p90 / p95 / p99 / max).
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;

namespace {

sweep::GridSpec antidope_grid() {
  sweep::GridSpec grid;
  grid.base = bench::eval_scenario(scenario::SchemeKind::kAntiDope,
                                   power::BudgetLevel::kMedium);
  // A tight explicit budget: the confined attack still causes a deficit
  // that RPM must actively throttle away (the paper's Fig. 15a shows the
  // controller visibly pulling power down).
  grid.base.budget_override = Watts{8 * 100.0 * 0.55};
  grid.base.duration = 10 * kMinute;
  // Attack axis: the DOPE flood arriving at t=120 s, and no attack.
  auto dope = sweep::AttackProfile::dope(400.0);
  dope.start = 120 * kSecond;
  grid.attacks = {dope, sweep::AttackProfile::none()};
  return grid;
}

}  // namespace

DOPE_BENCH_FIGURE(
    fig15_antidope_power, "Figure 15",
    "Anti-DOPE: power control with slight normal-user degradation") {
  const auto runs = figure.run_grid(antidope_grid());
  const auto& attacked = runs[0];
  const auto& baseline = runs[1];
  figure.result_metrics("attacked", attacked);
  figure.result_metrics("baseline", baseline);

  // ---- (a) power timeline around the attack onset ----
  std::cout << "\n(a) cluster power (W), DOPE onset at t=120 s, budget = "
            << attacked.budget.value() << " W\n";
  TextTable a({"t (s)", "power w/ DOPE", "power no attack"});
  const auto mean_between = [](const scenario::ScenarioResult& r, Time lo,
                               Time hi) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& s : r.power_timeline) {
      if (s.t >= lo && s.t < hi) {
        sum += s.value;
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  for (int b = 0; b < 20; ++b) {
    const Time lo = b * 30 * kSecond;
    const Time hi = lo + 30 * kSecond;
    a.row(b * 30, mean_between(attacked, lo, hi),
          mean_between(baseline, lo, hi));
  }
  a.print(std::cout);

  // ---- (b) normal users' response-time profile ----
  std::cout << "\n(b) normal users' response time (ms) under Anti-DOPE\n";
  TextTable b({"statistic", "no attack", "under DOPE"});
  b.row("min", baseline.min_ms, attacked.min_ms);
  b.row("mean", baseline.mean_ms, attacked.mean_ms);
  b.row("p90", baseline.p90_ms, attacked.p90_ms);
  b.row("p95", baseline.p95_ms, attacked.p95_ms);
  b.row("p99", baseline.p99_ms, attacked.p99_ms);
  b.row("max", baseline.max_ms, attacked.max_ms);
  b.print(std::cout);
  std::cout << "availability under DOPE: " << attacked.availability << "\n";

  // ---- shape checks ----
  const double before = mean_between(attacked, 0, 120 * kSecond);
  const double spike = mean_between(attacked, 120 * kSecond,
                                    150 * kSecond);
  const double settled =
      mean_between(attacked, 5 * kMinute, 10 * kMinute);
  figure.shape("DOPE onset produces a sharp increase in total power",
               spike > before + 50.0);
  figure.shape("Anti-DOPE settles power back to the supply budget",
               settled <= attacked.budget.value() * 1.05);
  figure.shape(
      "normal users' p90/p95 are only slightly worse than the baseline",
      attacked.p90_ms < 3.0 * baseline.p90_ms + 10.0 &&
          attacked.p95_ms < 3.0 * baseline.p95_ms + 20.0);
  figure.shape("availability of normal users stays high",
               attacked.availability > 0.9);
}
