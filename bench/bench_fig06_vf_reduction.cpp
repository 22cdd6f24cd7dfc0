// Figure 6: effect of HTTP DoS attack on power capping (V/F scaling).
//
//  (a) applied V/F vs. traffic rate under Medium-PB with DVFS capping:
//      Colla-Filt triggers V/F reduction at the lowest rate (highest
//      power intensity) and the level plateaus once capping saturates;
//  (b) V/F level per request type at 1000 rps: K-means forces the
//      deepest reduction because its power barely responds to frequency.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

namespace {

/// Runs the testbed under Capping and returns the mean applied frequency
/// at the end of the run plus the deepest level seen.
scenario::ScenarioResult run_capped(workload::RequestTypeId type,
                                    double rate) {
  auto config = bench::testbed_scenario(scenario::SchemeKind::kCapping,
                                        power::BudgetLevel::kMedium);
  config.attack_rps = rate;
  config.attack_mixture = workload::Mixture::single(type);
  config.duration = 5 * kMinute;
  return scenario::run_scenario(config);
}

}  // namespace

DOPE_BENCH_FIGURE(fig06_vf_reduction, "Figure 6",
                  "Effect of HTTP DoS on power capping (V/F)") {
  const auto ladder = power::DvfsLadder::make();

  // ---- (a) deepest V/F level vs rate, Medium-PB ----
  std::cout << "\n(a) deepest applied frequency (GHz) vs. traffic rate "
               "(Medium-PB, Capping)\n";
  const std::vector<double> rates = {10, 25, 50, 100, 250, 500, 1000};
  const std::vector<workload::RequestTypeId> types = {
      Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount,
      Catalog::kTextCont};
  std::vector<std::vector<double>> min_freq(
      types.size(), std::vector<double>(rates.size(), 0.0));
  for (std::size_t t = 0; t < types.size(); ++t) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const auto result = run_capped(types[t], rates[r]);
      min_freq[t][r] = ladder.frequency(result.min_level_seen).value();
    }
  }
  TextTable a({"rate (rps)", "Colla-Filt", "K-means", "Word-Count",
               "Text-Cont"});
  for (std::size_t r = 0; r < rates.size(); ++r) {
    a.row(rates[r], min_freq[0][r], min_freq[1][r], min_freq[2][r],
          min_freq[3][r]);
  }
  a.print(std::cout);

  // ---- (b) V/F per type at 1000 rps ----
  std::cout << "\n(b) frequency under a 1000 rps flood, by request type\n";
  TextTable b({"type", "deepest f (GHz)", "final mean f (GHz)"});
  std::vector<double> deepest(types.size());
  for (std::size_t t = 0; t < types.size(); ++t) {
    const auto result = run_capped(types[t], 1'000.0);
    deepest[t] = ladder.frequency(result.min_level_seen).value();
    const auto catalog = workload::Catalog::standard();
    b.row(catalog.type(types[t]).name, deepest[t],
          result.final_mean_frequency.value());
  }
  b.print(std::cout);

  // ---- shape checks ----
  // First rate at which each type forces any V/F reduction.
  const auto first_reduction = [&](std::size_t t) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      if (min_freq[t][r] < ladder.max_frequency().value() - 1e-9) {
        return rates[r];
      }
    }
    return 1e18;
  };
  figure.shape(
      "Colla-Filt incurs V/F reduction at the lowest traffic rate",
      first_reduction(0) <= first_reduction(1) &&
          first_reduction(0) <= first_reduction(2) &&
          first_reduction(0) < first_reduction(3));
  figure.shape(
      "V/F plateaus once the traffic rate exceeds a threshold",
      min_freq[0][rates.size() - 1] == min_freq[0][rates.size() - 2]);
  figure.shape(
      "K-means induces the deepest V/F reduction at 1000 rps "
      "(power insensitive to frequency)",
      deepest[1] <= deepest[0] && deepest[1] <= deepest[2] &&
          deepest[1] <= deepest[3]);
  figure.shape("light Text-Cont traffic never forces deep throttling",
               min_freq[3][rates.size() - 1] >= deepest[1]);
}
