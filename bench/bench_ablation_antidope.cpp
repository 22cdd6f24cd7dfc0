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
#include <iostream>

#include "bench/bench_util.hpp"
#include "cluster/cluster.hpp"
#include "schemes/oracle.hpp"
#include "schemes/rapl_capping.hpp"
#include "workload/generator.hpp"

using namespace dope;

namespace {

scenario::ScenarioConfig base() {
  auto config = bench::eval_scenario(scenario::SchemeKind::kAntiDope,
                                     power::BudgetLevel::kLow);
  config.duration = 5 * kMinute;
  return config;
}

/// Runs a hand-assembled cluster with an arbitrary scheme (for schemes
/// outside the ScenarioConfig enum: Oracle, RAPL-Capping).
struct ManualResult {
  double mean_ms = 0.0;
  double p90_ms = 0.0;
  double availability = 0.0;
};

ManualResult run_manual(std::unique_ptr<cluster::ControlStage> scheme) {
  sim::Engine engine;
  const auto catalog = workload::Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cc.budget_level = power::BudgetLevel::kLow;
  cc.battery_runtime = 2 * kMinute;
  cluster::Cluster cluster(engine, catalog, cc);
  cluster.install_scheme(std::move(scheme));

  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 300.0;
  normal.num_sources = 256;
  normal.seed = 85;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());
  workload::GeneratorConfig attack;
  attack.mixture = bench::heavy_blend();
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  attack.seed = 86;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());
  engine.run_until(5 * kMinute);

  ManualResult result;
  const auto& m = cluster.request_metrics();
  result.mean_ms = m.normal_latency_ms().mean();
  result.p90_ms = m.normal_latency_ms().percentile(90);
  result.availability = m.availability();
  return result;
}

}  // namespace

int main() {
  bench::figure_header("Ablation", "Anti-DOPE design choices");

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
  const auto runs_a = bench::run_grid(grid_a);
  std::vector<double> avail_by_fraction;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const auto& r = runs_a[i];
    a.row(fractions[i], static_cast<int>(8 * fractions[i] + 0.5),
          r.mean_ms, r.p90_ms, r.availability);
    avail_by_fraction.push_back(r.availability);
  }
  a.print(std::cout);
  bench::shape(
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
  const auto runs_b = bench::run_grid(grid_b);
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
  bench::shape(
      "too low a threshold misroutes normal traffic into the suspect "
      "pool (availability collapses)",
      avail_low < 0.5);
  bench::shape(
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
  const auto runs_c = bench::run_grid(grid_c);
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
  bench::shape(
      "a slower control loop leaves more violation-time uncorrected",
      violations.back() >= violations.front());

  // ---- (d) classification quality ----
  std::cout << "\n(d) isolation quality: uniform vs per-node capping vs "
               "Anti-DOPE vs Oracle\n";
  const auto uniform =
      run_manual(scenario::make_scheme(scenario::SchemeKind::kCapping));
  const auto per_node = run_manual(
      std::make_unique<schemes::RaplCappingScheme>());
  const auto antidope =
      run_manual(scenario::make_scheme(scenario::SchemeKind::kAntiDope));
  const auto oracle = run_manual(std::make_unique<schemes::OracleScheme>());
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

  bench::shape("isolation beats both capping variants on p90",
               antidope.p90_ms < uniform.p90_ms &&
                   antidope.p90_ms < per_node.p90_ms);
  bench::shape(
      "the Oracle's only edge over Anti-DOPE is the legitimate heavy "
      "tail (better mean/availability, similar p90)",
      oracle.mean_ms <= antidope.mean_ms &&
          oracle.availability >= antidope.availability &&
          oracle.p90_ms < 2.0 * antidope.p90_ms + 10.0);

  // ---- (e) uniform vs per-node DPM throttling ----
  std::cout << "\n(e) Algorithm 1 throttling search: uniform level vs "
               "per-node TL(p,q)\n";
  sweep::GridSpec grid_e;
  grid_e.base = base();
  grid_e.base.budget_override = Watts{8 * 100.0 * 0.55};  // active throttle
  grid_e.variants = {
      {"uniform", {}},
      {"per-node", [](scenario::ScenarioConfig& cfg) {
         cfg.antidope.per_node_throttling = true;
       }}};
  const auto runs_e = bench::run_grid(grid_e);
  const auto& uniform_dpm = runs_e[0];
  const auto& per_node_dpm = runs_e[1];
  TextTable e({"DPM search", "mean (ms)", "p90 (ms)", "availability",
               "violation slots"});
  e.row("uniform level", uniform_dpm.mean_ms, uniform_dpm.p90_ms,
        uniform_dpm.availability,
        static_cast<long long>(uniform_dpm.slot_stats.violation_slots));
  e.row("per-node TL(p,q)", per_node_dpm.mean_ms, per_node_dpm.p90_ms,
        per_node_dpm.availability,
        static_cast<long long>(per_node_dpm.slot_stats.violation_slots));
  e.print(std::cout);
  bench::shape(
      "per-node DPM enforces the budget at least as well as uniform "
      "while serving normal users no worse",
      per_node_dpm.slot_stats.violation_slots <=
              uniform_dpm.slot_stats.violation_slots + 30 &&
          per_node_dpm.p90_ms < 2.0 * uniform_dpm.p90_ms + 10.0);
  return 0;
}
