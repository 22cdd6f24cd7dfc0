// Figure 9: service availability under aggressive power oversubscription.
//
// Paper: aggressive oversubscription causes severe decline in service
// availability under attack — the power reduction compromises service
// state (requests time out / are rejected).
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;

DOPE_BENCH_FIGURE(fig09_availability, "Figure 9",
                  "Service availability under aggressive oversubscription") {
  // Budget fractions from generous to aggressive.
  const std::vector<double> fractions = {1.00, 0.90, 0.85, 0.80, 0.75,
                                         0.70};
  const std::vector<double> rates = {0.0, 150.0, 300.0};

  TextTable table({"budget (% nameplate)", "no attack", "150 rps DOPE",
                   "300 rps DOPE"});
  // availability[rate index][fraction index]
  std::vector<std::vector<double>> avail(
      rates.size(), std::vector<double>(fractions.size(), 0.0));
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    for (std::size_t a = 0; a < rates.size(); ++a) {
      auto config = bench::testbed_scenario(scenario::SchemeKind::kCapping);
      config.budget_override = Watts{4 * 100.0 * fractions[f]};
      config.attack_rps = rates[a];
      if (rates[a] > 0) config.attack_mixture = bench::heavy_blend();
      config.duration = 5 * kMinute;
      const auto r = scenario::run_scenario(config);
      avail[a][f] = r.availability;
    }
    table.row(fractions[f] * 100.0, avail[0][f], avail[1][f], avail[2][f]);
  }
  table.print(std::cout);

  figure.shape("availability is perfect without an attack",
               *std::min_element(avail[0].begin(), avail[0].end()) > 0.999);
  figure.shape(
      "under attack, availability declines as oversubscription deepens",
      avail[2].back() < avail[2].front() - 0.05);
  figure.shape("a stronger flood hurts availability more",
               avail[2].back() <= avail[1].back() + 1e-9);
}
