// Ablation: offline-only vs. online-learning suspect classification.
//
// Scenario: the attacker floods a heavy URL the operator never profiled
// (the offline suspect list knows nothing). With offline-only Anti-DOPE,
// the unknown URL routes to the innocent pool and the defense degenerates
// to plain capping. With the online classifier, per-URL power is learned
// from node telemetry within seconds and the flood is pulled into the
// suspect pool — the paper's "extend by changing the monitored
// statistical features" direction, realised.
#include <iostream>
#include <memory>
#include <utility>

#include "antidope/antidope.hpp"
#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

namespace {

struct Outcome {
  double mean_ms = 0.0;
  double p90_ms = 0.0;
  double availability = 0.0;
  std::size_t reclassifications = 0;
  bool learned = false;
};

Outcome run(bool online_learning) {
  auto config = bench::eval_scenario(scenario::SchemeKind::kAntiDope,
                                     power::BudgetLevel::kLow);
  config.attack_mixture = workload::Mixture::single(Catalog::kKMeans);
  config.seed = 30;
  // Nothing was profiled: every URL starts innocent.
  config.antidope.suspect_list = antidope::SuspectList(
      std::vector<bool>(workload::Catalog::standard().size(), false));
  config.antidope.online_learning = online_learning;
  antidope::AntiDopeScheme* scheme = nullptr;
  scenario::RunHooks hooks;
  hooks.stage = [&] {
    auto stage = std::make_unique<antidope::AntiDopeScheme>(config.antidope);
    scheme = stage.get();
    return stage;
  };
  scenario::Run run(config, std::move(hooks));
  run.run_until(config.duration);
  const auto r = run.summary();

  Outcome out;
  out.mean_ms = r.mean_ms;
  out.p90_ms = r.p90_ms;
  out.availability = r.availability;
  if (scheme->classifier() != nullptr) {
    out.reclassifications = scheme->classifier()->reclassifications();
    out.learned = scheme->classifier()->suspicious(Catalog::kKMeans);
  }
  return out;
}

}  // namespace

DOPE_BENCH_FIGURE(
    ablation_online, "Ablation",
    "Offline vs. online suspect classification (unprofiled attack URL)") {
  const auto offline = run(false);
  const auto online = run(true);

  TextTable table({"classifier", "normal mean (ms)", "normal p90 (ms)",
                   "availability", "reclassifications"});
  table.row("offline only (blind)", offline.mean_ms, offline.p90_ms,
            offline.availability,
            static_cast<long long>(offline.reclassifications));
  table.row("online learning", online.mean_ms, online.p90_ms,
            online.availability,
            static_cast<long long>(online.reclassifications));
  table.print(std::cout);

  figure.shape("the online classifier flags the unprofiled attack URL",
               online.learned && online.reclassifications >= 1);
  figure.shape(
      "online learning restores the isolation benefit (p90 much better "
      "than the blind configuration)",
      online.p90_ms < 0.5 * offline.p90_ms);
}
