// Ablations of Anti-DOPE's design choices:
//
//  (a) suspect pool sizing — the fraction of servers sacrificed to
//      isolation trades legitimate heavy-tail latency against how much
//      firepower the attack can pin down;
//  (b) suspect power threshold — where the URL classifier draws the line
//      between heavy and light services;
//  (c) management slot length — control-loop responsiveness vs. actuation
//      churn and battery usage;
//  (d) classification quality — Anti-DOPE's URL heuristic vs. the
//      perfect-knowledge Oracle (upper bound) vs. uniform and per-node
//      capping (no isolation at all).
#include <functional>
#include <iostream>
#include <memory>
#include <utility>

#include "antidope/oracle.hpp"
#include "bench/bench_util.hpp"
#include "schemes/rapl_capping.hpp"

using namespace dope;

namespace {

scenario::ScenarioConfig base() {
  auto config = bench::eval_scenario(scenario::SchemeKind::kAntiDope,
                                     power::BudgetLevel::kLow);
  config.duration = 5 * kMinute;
  return config;
}

/// Runs base() with `stage` in place of its scheme (for schemes outside
/// the ScenarioConfig enum: Oracle, RAPL-Capping).
scenario::ScenarioResult run_stage(
    std::function<std::unique_ptr<cluster::ControlStage>()> stage) {
  const auto config = base();
  scenario::RunHooks hooks;
  hooks.stage = std::move(stage);
  scenario::Run run(config, std::move(hooks));
  run.run_until(config.duration);
  return run.summary();
}

}  // namespace

DOPE_BENCH_FIGURE(ablation_antidope, "Ablation", "Anti-DOPE design choices") {
  // ---- (a) suspect pool fraction ----
  // Each config knob becomes a named variant on a sweep grid, so the
  // section's runs share the multicore pool instead of a serial loop.
  std::cout << "\n(a) suspect pool fraction (Low-PB, 400 rps attack)\n";
  TextTable a({"fraction", "pool size", "mean (ms)", "p90 (ms)",
               "availability"});
  const std::vector<double> fractions = {0.125, 0.25, 0.375, 0.5};
  sweep::GridSpec grid_a;
  grid_a.base = base();
  for (const double fraction : fractions) {
    grid_a.variants.push_back(
        {"pool-" + std::to_string(fraction),
         [fraction](scenario::ScenarioConfig& c) {
           c.antidope.suspect_pool_fraction = fraction;
         }});
  }
  const auto runs_a = figure.run_grid(grid_a);
  std::vector<double> avail_by_fraction;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const auto& r = runs_a[i];
    a.row(fractions[i], static_cast<int>(8 * fractions[i] + 0.5),
          r.mean_ms, r.p90_ms, r.availability);
    avail_by_fraction.push_back(r.availability);
  }
  a.print(std::cout);
  figure.shape(
      "a larger suspect pool improves availability (more capacity for "
      "the co-located legitimate heavy tail)",
      avail_by_fraction.back() > avail_by_fraction.front());

  // ---- (b) suspect power threshold ----
  std::cout << "\n(b) suspect power threshold\n";
  TextTable b({"threshold (W)", "suspect types", "mean (ms)", "p90 (ms)",
               "availability"});
  const auto catalog = workload::Catalog::standard();
  const std::vector<double> thresholds = {5.0, 10.0, 16.0, 20.0};
  sweep::GridSpec grid_b;
  grid_b.base = base();
  for (const double threshold : thresholds) {
    grid_b.variants.push_back(
        {"threshold-" + std::to_string(threshold),
         [threshold](scenario::ScenarioConfig& c) {
           c.antidope.suspect_power_threshold = Watts{threshold};
         }});
  }
  const auto runs_b = figure.run_grid(grid_b);
  double p90_mid = 0.0, p90_loose = 0.0, avail_low = 1.0;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const double threshold = thresholds[i];
    const auto list =
        antidope::SuspectList::from_catalog(catalog, Watts{threshold});
    const auto& r = runs_b[i];
    b.row(threshold, static_cast<int>(list.suspect_count()), r.mean_ms,
          r.p90_ms, r.availability);
    if (threshold == 5.0) avail_low = r.availability;
    if (threshold == 10.0) p90_mid = r.p90_ms;
    if (threshold == 20.0) p90_loose = r.p90_ms;
  }
  b.print(std::cout);
  figure.shape(
      "too low a threshold misroutes normal traffic into the suspect "
      "pool (availability collapses)",
      avail_low < 0.5);
  figure.shape(
      "too high a threshold lets heavy attack URLs into the innocent "
      "pool (tail degrades vs. the calibrated 10 W)",
      p90_loose > 5.0 * p90_mid);

  // ---- (c) management slot length ----
  std::cout << "\n(c) management slot length\n";
  TextTable c({"slot (ms)", "mean (ms)", "p90 (ms)",
               "demand violations", "battery used (J)"});
  const std::vector<Duration> slots = {250 * kMillisecond, kSecond,
                                       4 * kSecond};
  sweep::GridSpec grid_c;
  grid_c.base = base();
  grid_c.base.budget_override = Watts{8 * 100.0 * 0.55};  // active control
  for (const Duration slot : slots) {
    grid_c.variants.push_back(
        {"slot-" + std::to_string(to_millis(slot)) + "ms",
         [slot](scenario::ScenarioConfig& cfg) { cfg.slot = slot; }});
  }
  const auto runs_c = figure.run_grid(grid_c);
  std::vector<std::uint64_t> violations;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Duration slot = slots[i];
    const auto& r = runs_c[i];
    c.row(to_millis(slot), r.mean_ms, r.p90_ms,
          static_cast<long long>(r.slot_stats.violation_slots),
          r.battery_discharged.value());
    violations.push_back(r.slot_stats.violation_slots *
                         static_cast<std::uint64_t>(to_millis(slot)));
  }
  c.print(std::cout);
  figure.shape(
      "a slower control loop leaves more violation-time uncorrected",
      violations.back() >= violations.front());

  // ---- (d) classification quality ----
  std::cout << "\n(d) isolation quality: uniform vs per-node capping vs "
               "Anti-DOPE vs Oracle\n";
  auto capping = base();
  capping.scheme = scenario::SchemeKind::kCapping;
  const auto uniform = scenario::run_scenario(capping);
  const auto per_node = run_stage(
      [] { return std::make_unique<schemes::RaplCappingScheme>(); });
  const auto antidope = scenario::run_scenario(base());
  const auto oracle =
      run_stage([] { return std::make_unique<antidope::OracleScheme>(); });
  TextTable d({"scheme", "mean (ms)", "p90 (ms)", "availability"});
  d.row("Capping (uniform)", uniform.mean_ms, uniform.p90_ms,
        uniform.availability);
  d.row("RAPL-Capping (per-node)", per_node.mean_ms, per_node.p90_ms,
        per_node.availability);
  d.row("Anti-DOPE (URL classes)", antidope.mean_ms, antidope.p90_ms,
        antidope.availability);
  d.row("Oracle (ground truth)", oracle.mean_ms, oracle.p90_ms,
        oracle.availability);
  d.print(std::cout);

  figure.shape("isolation beats both capping variants on p90",
               antidope.p90_ms < uniform.p90_ms &&
                   antidope.p90_ms < per_node.p90_ms);
  figure.shape(
      "the Oracle's only edge over Anti-DOPE is the legitimate heavy "
      "tail (better mean/availability, similar p90)",
      oracle.mean_ms <= antidope.mean_ms &&
          oracle.availability >= antidope.availability &&
          oracle.p90_ms < 2.0 * antidope.p90_ms + 10.0);

  // ---- (e) Algorithm 1 under a budget only DPM can meet ----
  std::cout << "\n(e) Algorithm 1 throttling search TL(p,q) at 440 W\n";
  auto dpm_config = base();
  dpm_config.budget_override = Watts{8 * 100.0 * 0.55};  // active throttle
  const auto dpm = scenario::run_scenario(dpm_config);
  TextTable e({"DPM search", "mean (ms)", "p90 (ms)", "availability",
               "violation slots"});
  e.row("per-node TL(p,q)", dpm.mean_ms, dpm.p90_ms, dpm.availability,
        static_cast<long long>(dpm.slot_stats.violation_slots));
  e.print(std::cout);
  figure.shape(
      "DPM holds the budget in all but 10 % of slots while serving normal "
      "users near the unthrottled Anti-DOPE p90",
      dpm.slot_stats.violation_slots * 10 <= dpm.slot_stats.slots &&
          dpm.p90_ms < 2.0 * antidope.p90_ms + 10.0);
}
