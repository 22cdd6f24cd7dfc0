// Defense comparison: run the same DOPE attack against all four power
// management schemes (Table 2) side by side and print the paper's key
// metrics — the condensed version of Figs. 16-19.
//
//   $ ./defense_comparison
#include <iostream>
#include <iterator>

#include "common/table.hpp"
#include "scenario/scenario.hpp"
#include "sweep/flags.hpp"
#include "sweep/sweep.hpp"

int main() {
  using namespace dope;

  std::cout << "== four defenses vs. the same DOPE attack ==\n"
            << "(8x100 W cluster, Low-PB budget = 640 W, 300 rps normal "
               "traffic,\n 400 rps heavy-URL attack, 10-minute window)\n\n";

  // The comparison is a one-axis grid: the four schemes over dopesim's
  // default scenario (Low-PB, 300 + 400 rps, 10 min) at seed 99. It
  // runs in parallel when more than one hardware thread is available;
  // results come back in scheme order.
  sweep::GridSpec grid;
  grid.base = sweep::default_scenario();
  grid.base.seed = 99;
  grid.schemes.assign(std::begin(scenario::kEvaluatedSchemes),
                      std::end(scenario::kEvaluatedSchemes));
  const auto results = sweep::run_grid(grid);

  TextTable table({"scheme", "mean RT (ms)", "p90 (ms)", "availability",
                   "dropped %", "battery used (J)", "utility energy (J)"});
  for (const auto& r : results) {
    table.row(r.scheme, r.mean_ms, r.p90_ms, r.availability,
              r.drop_fraction * 100.0, r.battery_discharged.value(),
              r.energy.utility_total().value());
  }
  table.print(std::cout);

  std::cout
      << "\nReading the table like the paper does:\n"
      << "  - Capping throttles everyone: worst latency for normal users.\n"
      << "  - Shaving hides the peak in the battery until it runs dry.\n"
      << "  - Token looks fast, but only because it discards traffic.\n"
      << "  - Anti-DOPE isolates the heavy URLs and throttles only the\n"
      << "    suspect pool: normal users barely notice the attack.\n";
  return 0;
}
