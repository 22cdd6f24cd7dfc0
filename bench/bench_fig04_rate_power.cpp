// Figure 4: peak power manipulation vs. traffic rate.
//
//  (a) mean power vs. request rate for each EC service type — more
//      requests per second produce higher power, and the heavy types
//      (Colla-Filt, K-means, Word-Count) elevate power at LOW rates;
//  (b) CDF of (nameplate-normalised) power at several traffic rates —
//      higher volume shifts the CDF right and reduces its variance.
#include <algorithm>
#include <iostream>
#include <string>

#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

DOPE_BENCH_FIGURE(fig04_rate_power, "Figure 4",
                  "Higher traffic rate tends to cause higher power") {
  const std::vector<double> rates = {1, 5, 10, 25, 50, 100, 250, 500, 1000};
  const std::vector<workload::RequestTypeId> types = {
      Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount,
      Catalog::kTextCont};

  // One grid over every (type, rate) pair, type-major; (b) reads its
  // Colla-Filt rows.
  sweep::GridSpec grid;
  grid.base = bench::testbed_scenario();
  for (const auto type : types) {
    for (const double rate : rates) {
      sweep::AttackProfile profile;
      profile.name = "type" + std::to_string(type) + "-" +
                     std::to_string(static_cast<int>(rate)) + "rps";
      profile.rps = rate;
      profile.mixture = workload::Mixture::single(type);
      grid.attacks.push_back(std::move(profile));
    }
  }
  const auto runs = figure.run_grid(grid);
  const auto run_at = [&](std::size_t type_i, double rate) -> const auto& {
    const auto rate_i = static_cast<std::size_t>(
        std::find(rates.begin(), rates.end(), rate) - rates.begin());
    return runs[type_i * rates.size() + rate_i];
  };

  // ---- (a) mean power vs rate per type ----
  std::cout << "\n(a) mean cluster power (W) vs. attack request rate\n";
  TextTable a({"rate (rps)", "Colla-Filt", "K-means", "Word-Count",
               "Text-Cont"});
  // results[type][rate index]
  std::vector<std::vector<double>> mean_power(
      types.size(), std::vector<double>(rates.size(), 0.0));

  for (std::size_t t = 0; t < types.size(); ++t) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      mean_power[t][r] = run_at(t, rates[r]).mean_power.value();
    }
  }
  for (std::size_t r = 0; r < rates.size(); ++r) {
    a.row(rates[r], mean_power[0][r], mean_power[1][r], mean_power[2][r],
          mean_power[3][r]);
  }
  a.print(std::cout);

  // ---- (b) CDF of normalised power at several rates (Colla-Filt) ----
  std::cout << "\n(b) CDF of power (normalised to nameplate), Colla-Filt "
               "traffic at multiple rates\n";
  const std::vector<double> cdf_rates = {10, 50, 100, 500, 1000};
  std::vector<Percentiles> dists(cdf_rates.size());
  for (std::size_t r = 0; r < cdf_rates.size(); ++r) {
    for (double v : run_at(0, cdf_rates[r]).power_samples_normalized) {
      dists[r].add(v);
    }
  }
  TextTable b({"percentile", "10rps", "50rps", "100rps", "500rps",
               "1000rps"});
  for (double p : {5.0, 25.0, 50.0, 75.0, 95.0}) {
    b.row(p, dists[0].percentile(p), dists[1].percentile(p),
          dists[2].percentile(p), dists[3].percentile(p),
          dists[4].percentile(p));
  }
  b.print(std::cout);

  // ---- shape checks ----
  bool monotone = true;
  for (std::size_t t = 0; t < types.size(); ++t) {
    for (std::size_t r = 1; r < rates.size(); ++r) {
      if (mean_power[t][r] + 2.0 < mean_power[t][r - 1]) monotone = false;
    }
  }
  figure.shape("sending more requests per second produces higher power",
               monotone);

  // Heavy types elevate power at low rates: at 50 rps, Colla-Filt adds far
  // more power over the idle+normal baseline than Text-Cont does.
  const double baseline = mean_power[3][0];
  figure.shape(
      "Colla-Filt/K-means/Word-Count elevate power at a low traffic rate",
      mean_power[0][4] - baseline > 3.0 * (mean_power[3][4] - baseline) &&
          mean_power[1][4] > mean_power[3][4] &&
          mean_power[2][4] > mean_power[3][4]);

  const double spread_low = dists[0].percentile(95) - dists[0].percentile(5);
  const double spread_high =
      dists[4].percentile(95) - dists[4].percentile(5);
  figure.shape("higher network volume shows lower variance in power usage",
               spread_high < spread_low);
  figure.shape("power CDF shifts right as the rate grows",
               dists[4].percentile(50) > dists[0].percentile(50));
}
