// Figure 7: service quality vs. traffic rate in an aggressively
// power-insufficient data center.
//
// The paper: "DoS-driven power surges show 7.4X longer mean response time
// and increase 8.9X 90th percentile tail latency after the request number
// exceeds about 100" — i.e. there is a knee where the flood starts
// tripping the power cap, and past it DVFS throttling compounds queueing.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

DOPE_BENCH_FIGURE(fig07_service_quality, "Figure 7",
                  "Service quality vs. traffic rate (power-insufficient)") {
  // Aggressively power-insufficient: well below Low-PB.
  const Watts kTightBudget{4 * 100.0 * 0.72};

  const std::vector<double> rates = {10, 25, 50, 75, 100, 150, 250, 400};
  TextTable table({"attack rate (rps)", "mean RT (ms)", "p90 (ms)",
                   "availability", "deepest f (GHz)"});
  std::vector<double> mean_ms(rates.size()), p90_ms(rates.size());
  const auto ladder = power::DvfsLadder::make();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    auto config = bench::testbed_scenario(scenario::SchemeKind::kCapping);
    config.budget_override = kTightBudget;
    config.attack_rps = rates[i];
    config.attack_mixture = bench::heavy_blend();
    config.duration = 5 * kMinute;
    const auto r = scenario::run_scenario(config);
    mean_ms[i] = r.mean_ms;
    p90_ms[i] = r.p90_ms;
    table.row(rates[i], r.mean_ms, r.p90_ms, r.availability,
              ladder.frequency(r.min_level_seen).value());
  }
  table.print(std::cout);

  // Reference: the lowest observed (pre-knee) service quality.
  const double base_mean = mean_ms[0];
  const double base_p90 = p90_ms[0];
  const double worst_mean = *std::max_element(mean_ms.begin(), mean_ms.end());
  const double worst_p90 = *std::max_element(p90_ms.begin(), p90_ms.end());
  std::cout << "\nmean RT degradation: " << worst_mean / base_mean
            << "x (paper: 7.4x)\n";
  std::cout << "p90 degradation:     " << worst_p90 / base_p90
            << "x (paper: 8.9x)\n";

  // Find the knee: the first rate where the mean jumps by > 2x over the
  // previous point.
  double knee = -1;
  for (std::size_t i = 1; i < rates.size(); ++i) {
    if (mean_ms[i] > 2.0 * mean_ms[i - 1]) {
      knee = rates[i];
      break;
    }
  }
  std::cout << "knee located at ~" << knee << " rps (paper: ~100 rps)\n";

  figure.shape("mean response time degrades by >= 7x past the knee",
               worst_mean >= 7.0 * base_mean);
  figure.shape("p90 tail latency degrades by >= 8x past the knee",
               worst_p90 >= 8.0 * base_p90);
  figure.shape("a knee exists in the 50-250 rps band",
               knee >= 50.0 && knee <= 250.0);
  figure.shape("service quality is monotonically worse past the knee",
               mean_ms.back() >= mean_ms[rates.size() - 2] * 0.8);
}
