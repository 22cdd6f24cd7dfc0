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

#include "antidope/antidope.hpp"
#include "bench/bench_util.hpp"
#include "cluster/cluster.hpp"
#include "workload/generator.hpp"

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
  sim::Engine engine;
  const auto catalog = workload::Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cc.budget_level = power::BudgetLevel::kLow;
  cc.battery_runtime = 2 * kMinute;
  cluster::Cluster cluster(engine, catalog, cc);

  antidope::AntiDopeConfig config;
  // Nothing was profiled: every URL starts innocent.
  config.suspect_list = antidope::SuspectList(
      std::vector<bool>(catalog.size(), false));
  config.online_learning = online_learning;
  auto scheme_ptr = std::make_unique<antidope::AntiDopeScheme>(config);
  auto* scheme = scheme_ptr.get();
  cluster.install_scheme(std::move(scheme_ptr));

  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 300.0;
  normal.num_sources = 256;
  normal.seed = 61;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());
  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kKMeans);
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  attack.seed = 62;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());

  engine.run_until(10 * kMinute);

  Outcome out;
  const auto& m = cluster.request_metrics();
  out.mean_ms = m.normal_latency_ms().mean();
  out.p90_ms = m.normal_latency_ms().percentile(90);
  out.availability = m.availability();
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
