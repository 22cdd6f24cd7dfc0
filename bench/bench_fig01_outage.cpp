// Figure 1 companion: DoS-induced unplanned power outages.
//
// The paper's motivation (Fig. 1) is survey data — DoS among the top
// root causes of unplanned data-center outages, with escalating cost.
// This bench closes the loop mechanistically: a DOPE flood against an
// oversubscribed feed protected only by a breaker produces real outages
// (tripped breaker, dark servers, lost in-flight work), while any
// budget-respecting power-management scheme keeps the breaker closed.
#include <iostream>
#include <memory>

#include "bench/bench_util.hpp"
#include "cluster/cluster.hpp"
#include "workload/generator.hpp"

using namespace dope;
using workload::Catalog;

namespace {

struct Outcome {
  std::uint64_t outages = 0;
  double downtime_s = 0.0;
  std::uint64_t lost_requests = 0;
  double availability = 0.0;
};

Outcome run(scenario::SchemeKind scheme_kind) {
  sim::Engine engine;
  const auto catalog = workload::Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cc.budget_level = power::BudgetLevel::kLow;
  cc.battery_runtime = 2 * kMinute;
  cc.breaker = power::BreakerSpec{.rated = Watts{640.0},
                                  .instant_trip_multiple = 2.0,
                                  .thermal_capacity = 20.0,
                                  .cooling_rate = 0.1};
  cc.outage_recovery = 30 * kSecond;
  cc.reboot_time = 10 * kSecond;
  cluster::Cluster cluster(engine, catalog, cc);
  cluster.install_scheme(scenario::make_scheme(scheme_kind));

  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 300.0;
  normal.num_sources = 256;
  normal.seed = 11;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());
  workload::GeneratorConfig attack;
  attack.mixture = bench::heavy_blend();
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  attack.seed = 12;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());
  engine.run_until(10 * kMinute);

  Outcome out;
  out.outages = cluster.slot_stats().outages;
  out.downtime_s = to_seconds(cluster.slot_stats().downtime);
  out.lost_requests =
      cluster.request_metrics().normal_counts().failed_outage;
  out.availability = cluster.request_metrics().availability();
  return out;
}

}  // namespace

DOPE_BENCH_FIGURE(fig01_outage, "Figure 1 companion",
                  "Unplanned outages: DOPE vs. a breaker-protected feed") {
  std::cout << "(Low-PB feed behind a 640 W breaker with a 20 s thermal "
               "capacity; 400 rps\n heavy-URL DOPE for 10 minutes)\n\n";

  TextTable table({"scheme", "outages", "downtime (s)",
                   "in-flight requests lost", "availability"});
  Outcome none, capping, antidope;
  for (const auto scheme :
       {scenario::SchemeKind::kNone, scenario::SchemeKind::kCapping,
        scenario::SchemeKind::kShaving, scenario::SchemeKind::kAntiDope}) {
    const auto out = run(scheme);
    table.row(scenario::scheme_name(scheme),
              static_cast<long long>(out.outages), out.downtime_s,
              static_cast<long long>(out.lost_requests), out.availability);
    if (scheme == scenario::SchemeKind::kNone) none = out;
    if (scheme == scenario::SchemeKind::kCapping) capping = out;
    if (scheme == scenario::SchemeKind::kAntiDope) antidope = out;
  }
  table.print(std::cout);

  figure.shape(
      "without power management, DOPE causes repeated unplanned outages",
      none.outages >= 2 && none.lost_requests > 0);
  figure.shape("every power-management scheme keeps the breaker closed",
               capping.outages == 0 && antidope.outages == 0);
  figure.shape(
      "outages destroy availability far beyond what throttling costs",
      none.availability < antidope.availability);
}
