// Figure 19: energy consumption for different power management schemes
// at different power provision levels, normalised to the utility supply
// of the no-attack baseline.
//
// Paper: in the baseline all schemes consume the same; under DOPE,
// Capping consumes the least (it blindly slows everything down, at the
// service-time cost of Figs. 16/17); Anti-DOPE uses less energy than
// Shaving because it depends less on (round-trip-lossy) batteries.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;

DOPE_BENCH_FIGURE(fig19_energy, "Figure 19",
                  "Energy consumption per scheme/budget") {
  // The normalisation reference: Normal-PB, no attack, no enforcement.
  auto base_config = bench::eval_scenario(scenario::SchemeKind::kNone,
                                          power::BudgetLevel::kNormal,
                                          /*attack_rps=*/0.0);
  const auto baseline = scenario::run_scenario(base_config);
  const Joules reference = baseline.energy.utility_total();
  std::cout << "\nreference energy (Normal-PB, no attack): "
            << reference.value() << " J over 10 min\n";

  const std::vector<power::BudgetLevel> budgets = {
      power::BudgetLevel::kNormal, power::BudgetLevel::kHigh,
      power::BudgetLevel::kMedium, power::BudgetLevel::kLow};

  std::cout << "\nnormalised utility energy under DOPE (400 rps)\n";
  TextTable table({"budget", "Capping", "Shaving", "Token", "Anti-DOPE"});
  const auto results = figure.eval_grid(budgets);
  std::vector<std::vector<double>> normalized;
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    std::vector<double> row;
    for (const auto& r : results[b]) {
      row.push_back(r.energy.utility_total() / reference);
    }
    normalized.push_back(row);
    table.row(power::budget_name(budgets[b]), row[0], row[1], row[2], row[3]);
  }
  table.print(std::cout);

  // No-attack sanity: all schemes equal.
  std::cout << "\nno-attack case (Normal-PB): ";
  const auto unattacked = figure.eval_grid({power::BudgetLevel::kNormal}, 0.0);
  std::vector<double> no_attack;
  for (const auto& r : unattacked[0]) {
    no_attack.push_back(r.energy.utility_total() / reference);
    std::cout << no_attack.back() << " ";
  }
  std::cout << "\n";

  const auto& low = normalized[3];
  figure.shape(
      "different schemes consume the same energy in the baseline case",
      *std::max_element(no_attack.begin(), no_attack.end()) -
              *std::min_element(no_attack.begin(), no_attack.end()) <
          0.02);
  figure.shape(
      "under sustained DOPE the conventional schemes all draw close to "
      "the budget envelope (within 10% of each other)",
      std::abs(low[0] - low[1]) < 0.10 * low[1] &&
          std::abs(low[2] - low[1]) < 0.10 * low[1]);
  figure.shape("Anti-DOPE consumes the least energy under DOPE",
               low[3] <= low[0] && low[3] <= low[1] && low[3] <= low[2]);
  // Deviation from the paper (documented in EXPERIMENTS.md): in our model
  // Anti-DOPE is *more* frugal than Capping, not slightly less — the
  // saturated suspect pool sheds excess attack work at the queue, while
  // the paper's testbed kept serving it slowly.
  std::cout << "ordering under DOPE at Low-PB: Anti-DOPE=" << low[3]
            << "  Capping=" << low[0] << "  Token=" << low[2]
            << "  Shaving=" << low[1] << "\n";
  figure.shape(
      "Anti-DOPE uses less energy than Shaving (less battery dependency)",
      low[3] < normalized[3][1] + 1e-9);
  figure.shape("energy under DOPE never exceeds the supplied budget's "
               "10-minute envelope",
               low[0] * reference.value() <=
                   0.80 * 800.0 * 600.0 * 1.05);
}
