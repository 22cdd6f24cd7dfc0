// Ablation: binary suspect list vs. graded (n-level) classification.
//
// The binary list lumps every heavy URL into one pool: a Word-Count
// flood therefore also swamps legitimate Colla-Filt users. The graded
// variant (Section 5.3's ⟨q₀…qₙ⟩ made structural) gives each power class
// its own pool, so the flood occupies only its own class. This bench measures
// what legitimate *heavy-URL* users experience under a mid-class flood
// with each design.
#include <iostream>
#include <memory>
#include <utility>

#include "antidope/antidope.hpp"
#include "antidope/graded.hpp"
#include "bench/bench_util.hpp"
#include "workload/generator.hpp"

using namespace dope;
using workload::Catalog;

namespace {

struct Outcome {
  double legit_heavy_p90 = 0.0;
  double legit_heavy_mean = 0.0;
  double availability = 0.0;
};

Outcome run(bool graded) {
  scenario::ScenarioConfig config;
  config.num_servers = 10;
  config.budget = power::BudgetLevel::kLow;
  config.normal_rps = 0.0;  // the three user classes below replace it
  config.duration = 5 * kMinute;
  scenario::RunHooks hooks;
  hooks.stage = [graded]() -> std::unique_ptr<cluster::ControlStage> {
    if (graded) return std::make_unique<antidope::GradedAntiDopeScheme>();
    antidope::AntiDopeConfig binary;
    binary.suspect_pool_fraction = 0.4;  // match the graded 2+2 share
    return std::make_unique<antidope::AntiDopeScheme>(binary);
  };
  scenario::Run run(config, std::move(hooks));
  sim::Engine& engine = run.engine();
  const workload::Catalog& catalog = run.catalog();
  site::Site& site = run.site();

  // The attack floods Word-Count (the middle class).
  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kWordCount);
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  attack.seed = 51;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        site.edge_sink());
  // Legitimate heavy users: Colla-Filt at a modest rate.
  workload::GeneratorConfig legit;
  legit.mixture = workload::Mixture::single(Catalog::kCollaFilt);
  legit.rate_rps = 20.0;
  legit.num_sources = 32;
  legit.seed = 52;
  workload::TrafficGenerator legit_gen(engine, catalog, legit,
                                       site.edge_sink());
  // Background light users.
  workload::GeneratorConfig light;
  light.mixture = workload::Mixture::single(Catalog::kTextCont);
  light.rate_rps = 300.0;
  light.num_sources = 256;
  light.seed = 53;
  workload::TrafficGenerator light_gen(engine, catalog, light,
                                       site.edge_sink());

  run.run_until(config.duration);

  Outcome out;
  const auto& metrics = site.request_metrics();
  const auto& latency = metrics.normal_latency_ms();
  // Normal latency blends light (8 ms) and heavy (80 ms) users; the
  // p99.5 region is dominated by the legitimate heavy tail, but for a
  // clean read we rely on the mean + p90 split: light users are fast in
  // both designs, so differences come from the heavy users.
  out.legit_heavy_p90 = latency.percentile(99);
  out.legit_heavy_mean = latency.mean();
  out.availability = metrics.availability();
  return out;
}

}  // namespace

DOPE_BENCH_FIGURE(
    ablation_graded, "Ablation",
    "Binary suspect list vs. graded power classes (mid-class flood)") {
  std::cout << "(Word-Count flood at 400 rps; legitimate Colla-Filt users "
               "at 20 rps;\n do the legit heavy users share the attack's "
               "fate?)\n\n";

  const auto binary = run(false);
  const auto graded = run(true);

  TextTable table({"design", "normal mean (ms)", "normal p99 (ms)",
                   "availability"});
  table.row("binary suspect list", binary.legit_heavy_mean,
            binary.legit_heavy_p90, binary.availability);
  table.row("graded (3 classes)", graded.legit_heavy_mean,
            graded.legit_heavy_p90, graded.availability);
  table.print(std::cout);

  figure.shape(
      "graded pools shield legitimate heavy users from a mid-class flood "
      "(p99 collapses vs. the binary design)",
      graded.legit_heavy_p90 < 0.25 * binary.legit_heavy_p90);
  figure.shape("graded classification also improves availability",
               graded.availability >= binary.availability - 0.005);
}
