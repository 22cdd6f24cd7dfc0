// Figure 1 companion: DoS-induced unplanned power outages.
//
// The paper's motivation (Fig. 1) is survey data — DoS among the top
// root causes of unplanned data-center outages, with escalating cost.
// This bench closes the loop mechanistically: a DOPE flood against an
// oversubscribed feed protected only by a breaker produces real outages
// (tripped breaker, dark servers, lost in-flight work), while any
// budget-respecting power-management scheme keeps the breaker closed.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;

DOPE_BENCH_FIGURE(fig01_outage, "Figure 1 companion",
                  "Unplanned outages: DOPE vs. a breaker-protected feed") {
  std::cout << "(Low-PB feed behind a 640 W breaker with a 20 s thermal "
               "capacity; 400 rps\n heavy-URL DOPE for 10 minutes)\n\n";

  sweep::GridSpec grid;
  grid.base = bench::eval_scenario(scenario::SchemeKind::kNone,
                                   power::BudgetLevel::kLow);
  grid.base.breaker = power::BreakerSpec{.rated = Watts{640.0},
                                         .instant_trip_multiple = 2.0,
                                         .thermal_capacity = 20.0,
                                         .cooling_rate = 0.1};
  grid.base.seed = 5;
  grid.schemes = {scenario::SchemeKind::kNone, scenario::SchemeKind::kCapping,
                  scenario::SchemeKind::kShaving,
                  scenario::SchemeKind::kAntiDope};
  const auto runs = figure.run_grid(grid);

  TextTable table({"scheme", "outages", "downtime (s)",
                   "in-flight requests lost", "availability"});
  for (const auto& r : runs) {
    table.row(r.scheme, static_cast<long long>(r.slot_stats.outages),
              to_seconds(r.slot_stats.downtime),
              static_cast<long long>(r.normal_counts.failed_outage),
              r.availability);
  }
  table.print(std::cout);

  const auto& none = runs[0];
  const auto& capping = runs[1];
  const auto& antidope = runs[3];
  figure.shape(
      "without power management, DOPE causes repeated unplanned outages",
      none.slot_stats.outages >= 2 && none.normal_counts.failed_outage > 0);
  figure.shape("every power-management scheme keeps the breaker closed",
               capping.slot_stats.outages == 0 &&
                   antidope.slot_stats.outages == 0);
  figure.shape(
      "outages destroy availability far beyond what throttling costs",
      none.availability < antidope.availability);
}
