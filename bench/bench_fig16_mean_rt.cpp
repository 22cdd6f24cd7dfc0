// Figure 16 (+ Table 2): mean response time while using different power
// schemes to handle DOPE, across the four provisioning levels.
//
// Paper headline: Anti-DOPE guarantees the minimum mean service time of
// the power-management schemes (44% shorter than the alternatives);
// Token looks even faster only because it abandons a large share of the
// packets.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;

DOPE_BENCH_FIGURE(fig16_mean_rt, "Figure 16",
                  "Mean response time per scheme and budget") {
  // Table 2: the evaluated schemes.
  std::cout << "\nTable 2: evaluated power management schemes\n";
  TextTable t2({"scheme", "feature"});
  t2.row("Capping", "performance (DVFS) scaling only");
  t2.row("Shaving", "UPS-based peak shaving, DVFS when drained");
  t2.row("Token", "power-based token bucket at the NLB");
  t2.row("Anti-DOPE", "request-aware two-step defense (PDF + RPM)");
  t2.print(std::cout);

  const std::vector<power::BudgetLevel> budgets = {
      power::BudgetLevel::kNormal, power::BudgetLevel::kHigh,
      power::BudgetLevel::kMedium, power::BudgetLevel::kLow};

  std::cout << "\nmean response time of normal users (ms), DOPE at 400 rps\n";
  TextTable table({"budget", "Capping", "Shaving", "Token", "Anti-DOPE",
                   "Token drop %"});
  // results[budget][scheme], evaluated multicore through dope::sweep.
  const auto results = figure.eval_grid(budgets);
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const auto& r = results[b];
    table.row(power::budget_name(budgets[b]), r[0].mean_ms, r[1].mean_ms,
              r[2].mean_ms, r[3].mean_ms, r[2].drop_fraction * 100.0);
  }
  table.print(std::cout);

  // ---- shape checks ----
  const auto& medium = results[2];
  const auto& low = results[3];
  const double improvement_medium =
      1.0 - medium[3].mean_ms / medium[0].mean_ms;
  const double improvement_low = 1.0 - low[3].mean_ms / low[0].mean_ms;
  std::cout << "\nAnti-DOPE mean RT improvement vs Capping: "
            << improvement_medium * 100.0 << "% (Medium-PB), "
            << improvement_low * 100.0 << "% (Low-PB) — paper: 44%\n";

  figure.shape(
      "under reduced budgets every scheme's mean RT exceeds the "
      "Normal-PB case",
      low[0].mean_ms > results[0][0].mean_ms &&
          low[1].mean_ms >= results[0][1].mean_ms * 0.9);
  figure.shape(
      "Anti-DOPE achieves >= 44% shorter mean RT than Capping under "
      "reduced budgets",
      improvement_medium >= 0.44 && improvement_low >= 0.44);
  figure.shape(
      "Token shows deceptively short service time by abandoning packets",
      low[2].mean_ms < low[0].mean_ms &&
          low[2].drop_fraction > 0.10);
  figure.shape(
      "Anti-DOPE's mean RT is insensitive to the supplied power",
      std::abs(low[3].mean_ms - results[0][3].mean_ms) <
          0.5 * results[0][3].mean_ms + 20.0);
}
