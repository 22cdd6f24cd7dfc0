// dopesweep — declarative parameter-sweep driver.
//
// Takes a grid spec (scheme × attack × budget × seed axes over one base
// scenario, read with dopesim_cli's scenario flags), shards the
// cross-product onto a thread pool, and merges the results
// deterministically in grid order — the same bytes come out of --json
// for any --threads value.
//
//   $ ./dopesweep --schemes capping,antidope --budgets normal,low
//         --attacks none,dope:400 --seeds 42,43 --threads 8
//         --json sweep.json --csv sweep.csv
//   $ ./dopesweep --zones 2 --attack-zone 0 --divider headroom
//         --schemes none,antidope --attacks none,dope:600
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/argv.hpp"
#include "common/table.hpp"
#include "obs/hub.hpp"
#include "obs/live.hpp"
#include "sweep/flags.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace dope;

void print_help() {
  std::cout <<
      R"(dopesweep — parallel parameter sweeps over the DOPE simulator

usage: dopesweep [options]

grid axes (comma-separated; an omitted axis inherits the base scenario)
  --schemes LIST       none | capping | shaving | token | antidope
  --budgets LIST       normal | high | medium | low
  --attacks LIST       none | dope:RPS | pulse:RPS:PERIOD_S
  --seeds LIST         RNG seeds, e.g. 42,43,44 (accepts 0x hex)

base scenario: the dopesim_cli scenario flags and defaults; an axis
replaces the fields it names (--attacks replaces the whole attack)

)";
  std::cout << sweep::kScenarioFlagsHelp;
  std::cout <<
      R"(
execution
  --threads N          worker threads; 0 = hardware concurrency (default)
  --json FILE          write the merged sweep report (deterministic bytes)
  --csv FILE           write one CSV row per run
  --incidents-out FILE record every run's flight-recorder incidents
                       (per-run hub: spans, per-slot series, default
                       alert rules) and write the merged bundle report
                       in grid order — deterministic for any --threads
  --progress           print sweep progress metrics after the run
  --live FILE          while the sweep runs, atomically refresh FILE with
                       a JSON progress snapshot (plus a Prometheus text
                       sibling, FILE with a .prom extension) and print
                       progress lines to stderr
  --live-interval-ms N live refresh period (default 1000)
  --help               this text

A run that throws is recorded as a failure (reported per run, exit code
1) without aborting the rest of the grid. See docs/SWEEP.md.
)";
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "dopesweep: " << message << " (see --help)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  sweep::GridSpec grid;
  grid.base = sweep::default_scenario();

  std::size_t threads = 0;
  std::string json_path, csv_path, incidents_path;
  std::string schemes_csv, budgets_csv, attacks_csv, seeds_csv;
  bool progress = false;
  std::string live_path;
  long live_interval_ms = 1000;

  try {
    cli::ArgCursor args(argc, argv);
    while (args.next()) {
      const std::string& flag = args.flag();
      if (flag == "--help" || flag == "-h") {
        print_help();
        return 0;
      } else if (flag == "--schemes") {
        schemes_csv = args.value();
      } else if (flag == "--budgets") {
        budgets_csv = args.value();
      } else if (flag == "--attacks") {
        attacks_csv = args.value();
      } else if (flag == "--seeds") {
        seeds_csv = args.value();
      } else if (flag == "--threads") {
        threads = args.count();
      } else if (flag == "--json") {
        json_path = args.value();
      } else if (flag == "--csv") {
        csv_path = args.value();
      } else if (flag == "--incidents-out") {
        incidents_path = args.value();
      } else if (flag == "--progress") {
        progress = true;
      } else if (flag == "--live") {
        live_path = args.value();
      } else if (flag == "--live-interval-ms") {
        live_interval_ms = static_cast<long>(args.count(LONG_MAX));
        if (live_interval_ms <= 0) {
          throw std::invalid_argument("--live-interval-ms must be positive");
        }
      } else if (!sweep::read_scenario_flag(args, grid.base)) {
        args.unknown();
      }
    }
    sweep::check_scenario_flags(grid.base);
    if (!schemes_csv.empty()) {
      grid.schemes = sweep::parse_scheme_list(schemes_csv);
    }
    if (!budgets_csv.empty()) {
      grid.budgets = sweep::parse_budget_list(budgets_csv);
    }
    if (!attacks_csv.empty()) {
      grid.attacks =
          sweep::parse_attack_list(attacks_csv, grid.base.duration);
    }
    if (!seeds_csv.empty()) grid.seeds = sweep::parse_seed_list(seeds_csv);
  } catch (const std::exception& e) {
    fail(e.what());
  }

  obs::Hub hub;
  obs::LiveTap live;
  sweep::SweepRunner runner({.threads = threads,
                             .obs = &hub,
                             .live = live_path.empty() ? nullptr : &live,
                             .capture_incidents = !incidents_path.empty()});
  std::optional<obs::LiveDrainer> drainer;
  if (!live_path.empty()) {
    drainer.emplace(live, live_path, "dopesweep", "run", live_interval_ms);
  }
  const auto sweep_result = runner.run(grid);
  drainer.reset();

  std::cout << "== dopesweep: " << sweep_result.runs.size() << " runs ("
            << sweep_result.failures << " failed) ==\n\n";
  TextTable table({"run", "mean (ms)", "p90 (ms)", "availability",
                   "peak (W)", "status"});
  for (const auto& run : sweep_result.runs) {
    if (run.ok) {
      table.row(run.point.label(), run.result.mean_ms, run.result.p90_ms,
                run.result.availability, run.result.peak_power.value(),
                "ok");
    } else {
      table.row(run.point.label(), "-", "-", "-", "-",
                "FAILED: " + run.error);
    }
  }
  table.print(std::cout);

  if (progress) {
    const auto* wall =
        hub.registry().find_histo("sweep.run_wall_ms");
    const auto* completed =
        hub.registry().find_counter("sweep.runs_completed");
    if (wall != nullptr && completed != nullptr) {
      std::cout << "\nprogress: " << completed->value()
                << " runs completed; wall time per run mean "
                << wall->mean() << " ms (min " << wall->min() << ", max "
                << wall->max() << ")\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) fail("cannot write " + json_path);
    sweep::write_json(out, grid, sweep_result);
    std::cout << "\nwrote " << json_path << "\n";
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) fail("cannot write " + csv_path);
    sweep::write_csv(out, sweep_result);
    std::cout << "wrote " << csv_path << "\n";
  }
  if (!incidents_path.empty()) {
    std::ofstream out(incidents_path);
    if (!out) fail("cannot write " + incidents_path);
    sweep::write_incidents_json(out, sweep_result);
    std::cout << "wrote " << incidents_path << "\n";
  }
  return sweep_result.failures == 0 ? 0 : 1;
}
