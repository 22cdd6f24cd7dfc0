// The paper's figures: each prints its rows/series and "SHAPE" lines
// asserting the qualitative property the paper claims (who wins, where
// the knee is). dopebench runs them, writes each one's verdicts and named
// metrics to BENCH_<name>.json, and exits 1 if any claim fails.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "scenario/scenario.hpp"
#include "sweep/sweep.hpp"
#include "workload/catalog.hpp"

namespace dope::bench {

/// The paper's injected malicious blend (Colla-Filt + K-means +
/// Word-Count service attacks, Section 6.1).
inline workload::Mixture heavy_blend() {
  using workload::Catalog;
  return workload::Mixture(
      {Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount},
      {1.0, 1.0, 1.0});
}

/// The standard evaluation cluster: 8 leaf nodes, 2-minute battery,
/// AliOS-style normal traffic at 300 rps, optional DOPE attack.
inline scenario::ScenarioConfig eval_scenario(
    scenario::SchemeKind scheme, power::BudgetLevel budget,
    double attack_rps = 400.0) {
  scenario::ScenarioConfig config;
  config.scheme = scheme;
  config.budget = budget;
  config.normal_rps = 300.0;
  config.attack_rps = attack_rps;
  if (attack_rps > 0) config.attack_mixture = heavy_blend();
  config.duration = 10 * kMinute;  // the paper's observation window
  config.seed = 42;
  return config;
}

/// The paper's Section 3 scaled-down testing environment: a mini rack of
/// four 100 W leaf nodes behind one switch, with light normal EC traffic.
inline scenario::ScenarioConfig testbed_scenario(
    scenario::SchemeKind scheme = scenario::SchemeKind::kNone,
    power::BudgetLevel budget = power::BudgetLevel::kNormal) {
  scenario::ScenarioConfig config;
  config.num_servers = 4;
  config.scheme = scheme;
  config.budget = budget;
  config.normal_rps = 150.0;
  config.duration = 10 * kMinute;
  config.seed = 42;
  return config;
}

/// The running figure's report: its shape verdicts and named metrics.
/// Its sweep grids run on `threads` workers (0 = hardware concurrency);
/// the count never changes the results — grids merge in grid order.
struct Figure {
  std::size_t threads = 0;
  std::vector<std::pair<std::string, bool>> verdicts;
  std::vector<std::pair<std::string, double>> metrics;

  /// Prints one qualitative shape check and records its verdict.
  void shape(const std::string& claim, bool holds) {
    std::cout << "SHAPE [" << (holds ? "PASS" : "CHECK") << "] " << claim
              << "\n";
    verdicts.emplace_back(claim, holds);
  }

  /// Records one named scalar into the figure's JSON report.
  void metric(const std::string& key, double value) {
    metrics.emplace_back(key, value);
  }

  /// Records a scenario result's headline numbers under `prefix.`.
  void result_metrics(const std::string& prefix,
                      const scenario::ScenarioResult& r) {
    metric(prefix + ".mean_ms", r.mean_ms);
    metric(prefix + ".p90_ms", r.p90_ms);
    metric(prefix + ".p99_ms", r.p99_ms);
    metric(prefix + ".availability", r.availability);
    metric(prefix + ".mean_power_w", r.mean_power.value());
    metric(prefix + ".peak_power_w", r.peak_power.value());
    metric(prefix + ".violation_slots",
           static_cast<double>(r.slot_stats.violation_slots));
    metric(prefix + ".outages", static_cast<double>(r.slot_stats.outages));
  }

  /// Runs a sweep grid multicore; a failed run throws with the run's
  /// label and error (benches have no use for partial figures).
  std::vector<scenario::ScenarioResult> run_grid(const sweep::GridSpec& grid) {
    return sweep::run_grid(grid, threads);
  }

  /// The paper's standard budget × scheme evaluation grid (budget-major,
  /// matching the tables): returns results[budget_i][scheme_i] for the
  /// four Table 2 schemes. `tweak` adjusts the base `eval_scenario`
  /// config (duration, slot, ...) before the axes are applied.
  std::vector<std::vector<scenario::ScenarioResult>> eval_grid(
      const std::vector<power::BudgetLevel>& budgets,
      double attack_rps = 400.0,
      const std::function<void(scenario::ScenarioConfig&)>& tweak = {}) {
    sweep::GridSpec grid;
    grid.base = eval_scenario(scenario::SchemeKind::kCapping,
                              power::BudgetLevel::kNormal, attack_rps);
    if (tweak) tweak(grid.base);
    grid.budgets = budgets;
    grid.schemes.assign(std::begin(scenario::kEvaluatedSchemes),
                        std::end(scenario::kEvaluatedSchemes));
    const auto flat = run_grid(grid);
    std::vector<std::vector<scenario::ScenarioResult>> rows;
    rows.reserve(budgets.size());
    const std::size_t ns = grid.schemes.size();
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      rows.emplace_back(
          flat.begin() + static_cast<std::ptrdiff_t>(b * ns),
          flat.begin() + static_cast<std::ptrdiff_t>((b + 1) * ns));
    }
    return rows;
  }
};

/// Adds a figure to the table dopebench runs (see DOPE_BENCH_FIGURE).
bool add_figure(const char* name, const char* id, const char* title,
                void (*run)(Figure&));

/// dopebench's command line (see its --help); returns the exit status:
/// 0, 1 if a claim fails or a figure throws, 2 on a bad command line.
int run_dopebench(int argc, const char* const* argv);

}  // namespace dope::bench

/// Defines the figure `name` (its bench file's stem without "bench_")
/// with the header `id: title`, and registers it with dopebench. The
/// body that follows receives `dope::bench::Figure& figure`.
#define DOPE_BENCH_FIGURE(name, id, title)             \
  static void name(dope::bench::Figure& figure);       \
  static const bool name##_added =                     \
      dope::bench::add_figure(#name, id, title, name); \
  static void name(dope::bench::Figure& figure)
