// Parallel parameter-sweep runner.
//
// Every figure and ablation in the paper is a cross-product over a small
// set of axes — power scheme × attack profile × budget level × config
// variant × seed — evaluated with `scenario::run_scenario`. This module
// makes that grid a first-class object: a `GridSpec` declares the axes, a
// `SweepRunner` shards the cross-product onto a `dope::ThreadPool` (one
// isolated `sim::Engine` and RNG stream per run), and the merged
// `SweepResult` is always in *grid order* — byte-identical regardless of
// the thread count or the order in which runs finish.
//
// Failure isolation: a run that throws is captured as a per-run failure
// record (`RunRecord::ok == false`, `error` holds the exception message)
// instead of aborting the process; the rest of the grid still completes.
//
// Progress is observable through an optional `obs::Hub`:
//   sweep.runs_total        counter — grid size, set before sharding
//   sweep.runs_completed    counter — incremented as runs finish
//   sweep.runs_failed       counter — runs whose scenario threw
//   sweep.run_wall_ms       histo   — per-run wall-clock time
// Wall-clock telemetry is inherently non-deterministic; it never feeds
// into `SweepResult` or the JSON/CSV reports, which stay reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "obs/live.hpp"
#include "scenario/scenario.hpp"

namespace dope::sweep {

/// One attack axis entry: a named traffic profile applied on top of the
/// base config. `rps == 0` with an empty plan means "no attack".
struct AttackProfile {
  std::string name = "none";
  double rps = 0.0;
  std::optional<workload::Mixture> mixture;
  std::vector<workload::RateStep> rate_plan;
  Time start = 0;
  Time stop = -1;

  /// The paper's standard DOPE flood (heavy blend at `rps`).
  static AttackProfile dope(double rps);
  /// No attack traffic at all.
  static AttackProfile none();
};

/// One variant axis entry: a named config mutation (pool fraction, slot
/// length, suspect threshold, ...). Applied after the other axes, so it may
/// override them. Variants are code, not data — the `dopesweep` CLI only
/// builds grids over the declarative axes.
struct Variant {
  std::string name = "base";
  std::function<void(scenario::ScenarioConfig&)> apply;
};

/// A declarative sweep grid. The cross-product is enumerated in *grid
/// order*: budgets (outermost) × schemes × attacks × variants × seeds
/// (innermost) — the budget-major order the paper's tables use. An empty
/// axis means "inherit the base config" and contributes one point.
struct GridSpec {
  /// Prototype config; axis values override its corresponding fields.
  scenario::ScenarioConfig base;

  std::vector<power::BudgetLevel> budgets;
  std::vector<scenario::SchemeKind> schemes;
  std::vector<AttackProfile> attacks;
  std::vector<Variant> variants;
  std::vector<std::uint64_t> seeds;

  std::size_t size() const;
};

/// Coordinates of one run inside the grid.
struct RunPoint {
  std::size_t index = 0;  // flat grid-order index
  std::size_t budget_i = 0, scheme_i = 0, attack_i = 0, variant_i = 0,
              seed_i = 0;

  power::BudgetLevel budget = power::BudgetLevel::kNormal;
  scenario::SchemeKind scheme = scenario::SchemeKind::kNone;
  /// "base" when the axis is empty (the base config's traffic applies).
  std::string attack = "base";
  std::string variant = "base";
  std::uint64_t seed = 0;

  /// "Normal-PB/Anti-DOPE/dope-400/base/seed-42" — stable run label for
  /// reports and failure messages.
  std::string label() const;
};

/// Enumerates the grid in grid order.
std::vector<RunPoint> expand(const GridSpec& grid);

/// Builds the concrete scenario for one point: base config + axis
/// overrides + variant mutation. The result never carries the caller's
/// obs hub (hubs must not be shared across concurrent runs).
scenario::ScenarioConfig materialize(const GridSpec& grid,
                                     const RunPoint& point);

/// Outcome of one grid point.
struct RunRecord {
  RunPoint point;
  bool ok = false;
  std::string error;  // exception message when !ok
  scenario::ScenarioResult result;  // valid only when ok
  /// The run's flight-recorder incident bundle (a dope_incident_bundle
  /// JSON document), captured only under
  /// `SweepOptions::capture_incidents`. Deterministic: sim time and
  /// seeds only, so the merged report's bytes stay thread-count
  /// independent.
  std::string incident_bundle;
};

/// Merged sweep outcome, runs in grid order.
struct SweepResult {
  std::vector<RunRecord> runs;
  std::size_t failures = 0;

  const RunRecord& at(std::size_t index) const { return runs.at(index); }
  /// Throws std::runtime_error naming the first failed run, if any.
  void require_all_ok() const;
};

struct SweepOptions {
  /// Worker threads; 0 selects the hardware concurrency.
  std::size_t threads = 0;
  /// Optional progress hub (see file comment). Caller owns; updates
  /// are serialised internally, so one hub may watch one sweep at a
  /// time from another thread.
  obs::Hub* obs = nullptr;
  /// Optional live telemetry tap: the runner publishes a snapshot when
  /// the sweep starts, after every finished run, and once more (with
  /// `done = true`) when the grid has drained. Any other thread may
  /// `latest()` concurrently (an `obs::LiveDrainer`, say). Caller owns.
  obs::LiveTap* live = nullptr;
  /// Run every grid point through `scenario::run_capturing_incidents`
  /// (a private hub per run: spans, per-slot series, flight recorder,
  /// default alert rules) and store the resulting incident bundle in
  /// `RunRecord::incident_bundle`. The per-run hubs are invisible to
  /// `SweepOptions::obs` and do not change the runs' results.
  bool capture_incidents = false;
};

/// Shards a grid onto a thread pool and merges deterministically.
class SweepRunner {
 public:
  using Options = SweepOptions;

  explicit SweepRunner(Options options = {});

  /// Runs the whole grid. The returned runs are in grid order for any
  /// thread count; a throwing run becomes a failure record.
  SweepResult run(const GridSpec& grid) const;

 private:
  Options options_;
};

/// Convenience: run `grid` on `threads` workers and throw on any failure.
std::vector<scenario::ScenarioResult> run_grid(const GridSpec& grid,
                                               std::size_t threads = 0);

// ---- declarative grid-spec parsing (CLI front-ends) ----
//
// Axis lists are comma-separated names; unknown names and numbers that
// do not parse in full ("42abc", "dope:400abc", "-1" as a seed) throw
// std::invalid_argument naming the offender. The grammar is what
// `dopesweep --help` documents; the base-scenario flags are in
// sweep/flags.hpp.

/// Splits "a,b,c" into trimmed non-empty elements.
std::vector<std::string> split_list(const std::string& csv);

/// "none" | "capping" | "shaving" | "token" | "antidope".
scenario::SchemeKind parse_scheme(const std::string& name);

/// "normal" | "high" | "medium" | "low".
power::BudgetLevel parse_budget(const std::string& name);

/// "none" | "dope:RPS" (steady heavy-blend flood) |
/// "pulse:RPS:PERIOD_S" (heavy blend, half-period on / half-period off
/// repeated across `duration`).
AttackProfile parse_attack(const std::string& spec, Duration duration);

std::vector<scenario::SchemeKind> parse_scheme_list(const std::string& csv);
std::vector<power::BudgetLevel> parse_budget_list(const std::string& csv);
std::vector<std::uint64_t> parse_seed_list(const std::string& csv);
std::vector<AttackProfile> parse_attack_list(const std::string& csv,
                                             Duration duration);

}  // namespace dope::sweep
