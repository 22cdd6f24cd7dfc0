// Figure 17: 90th-percentile tail latency while using different power
// schemes to handle DOPE.
//
// Paper: tail latency reaches hundreds of ms under reduced budgets for
// conventional capping; Anti-DOPE sustains normal users' tails
// "regardless of the supplied power" (68.1% better p90); Shaving's
// battery does not function well against a long-duration peak; Token
// yields good tails only by discarding traffic.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;

DOPE_BENCH_FIGURE(fig17_tail_latency, "Figure 17",
                  "p90 tail latency per scheme/budget") {
  const std::vector<power::BudgetLevel> budgets = {
      power::BudgetLevel::kNormal, power::BudgetLevel::kHigh,
      power::BudgetLevel::kMedium, power::BudgetLevel::kLow};

  std::cout << "\np90 / p95 tail latency of normal users (ms), DOPE at "
               "400 rps, 10-minute window\n";
  TextTable table({"budget", "Capping p90", "Shaving p90", "Token p90",
                   "Anti-DOPE p90", "Anti-DOPE p95"});
  // results[budget][scheme] via dope::sweep, with a long window: it
  // outlives the 2-minute battery, exposing Shaving.
  const auto results =
      figure.eval_grid(budgets, 400.0, [](scenario::ScenarioConfig& c) {
        c.duration = 15 * kMinute;
      });
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const auto& r = results[b];
    table.row(power::budget_name(budgets[b]), r[0].p90_ms, r[1].p90_ms,
              r[2].p90_ms, r[3].p90_ms, r[3].p95_ms);
  }
  table.print(std::cout);

  const auto& normal = results[0];
  const auto& medium = results[2];
  const auto& low = results[3];
  const double improvement =
      1.0 - medium[3].p90_ms / medium[0].p90_ms;
  std::cout << "\nAnti-DOPE p90 improvement vs Capping at Medium-PB: "
            << improvement * 100.0 << "% (paper: 68.1%)\n";

  figure.shape("with adequate power (Normal-PB) DOPE only slightly "
               "prolongs the tail for power schemes",
               normal[0].p90_ms < 100.0 && normal[1].p90_ms < 100.0);
  figure.shape(
      "Anti-DOPE improves p90 by >= 68.1% vs Capping under reduced budgets",
      improvement >= 0.681 &&
          (1.0 - low[3].p90_ms / low[0].p90_ms) >= 0.681);
  figure.shape(
      "batteries do not function well against the long-duration peak "
      "(Shaving tail degrades at low budgets)",
      low[1].p90_ms > 2.0 * normal[1].p90_ms);
  figure.shape("Token yields a good tail by abandoning requests",
               low[2].p90_ms < low[0].p90_ms &&
                   low[2].drop_fraction > 0.10);
  figure.shape(
      "Anti-DOPE sustains the tail regardless of the supplied power",
      low[3].p90_ms < 2.0 * normal[3].p90_ms + 10.0);
}
