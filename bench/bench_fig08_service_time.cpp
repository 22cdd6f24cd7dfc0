// Figure 8: service time of the four observed traffic types under
// power capping.
//
// Paper: Colla-Filt and K-means floods arouse the most serious
// degradation of (normal users') service quality.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

DOPE_BENCH_FIGURE(fig08_service_time, "Figure 8",
                  "Service time per traffic type under capping") {
  const std::vector<workload::RequestTypeId> types = {
      Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount,
      Catalog::kTextCont};
  const auto catalog = workload::Catalog::standard();

  TextTable table({"flood type", "normal mean RT (ms)", "normal p90 (ms)",
                   "availability"});
  std::vector<double> mean_ms(types.size());
  for (std::size_t t = 0; t < types.size(); ++t) {
    auto config = bench::testbed_scenario(scenario::SchemeKind::kCapping,
                                          power::BudgetLevel::kLow);
    config.attack_rps = 300.0;
    config.attack_mixture = workload::Mixture::single(types[t]);
    config.duration = 5 * kMinute;
    const auto r = scenario::run_scenario(config);
    mean_ms[t] = r.mean_ms;
    table.row(catalog.type(types[t]).name, r.mean_ms, r.p90_ms,
              r.availability);
  }
  table.print(std::cout);

  figure.shape(
      "Colla-Filt and K-means floods degrade service quality the most",
      std::min(mean_ms[0], mean_ms[1]) >
          std::max(mean_ms[2], mean_ms[3]));
  figure.shape("a light Text-Cont flood is the least damaging",
               mean_ms[3] <= mean_ms[0] && mean_ms[3] <= mean_ms[1] &&
                   mean_ms[3] <= mean_ms[2]);
}
