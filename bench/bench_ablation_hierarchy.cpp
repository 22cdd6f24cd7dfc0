// Ablation: flat vs. hierarchy-aware capping under a concentrated flood.
//
// Oversubscription is practised at every level of the power-delivery
// tree (Fig. 2a). A flood that source-affinity routing concentrates onto
// one rack can overload that rack's PDU while the cluster total stays
// under the facility feed — flat capping (one number) is blind to it;
// hierarchy-aware capping throttles exactly the hot rack.
#include <iostream>
#include <memory>
#include <utility>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "schemes/hierarchical.hpp"
#include "workload/generator.hpp"

using namespace dope;
using workload::Catalog;

namespace {

struct Outcome {
  std::uint64_t pdu_violation_slots = 0;
  Watts worst_pdu_overload{0.0};
  double normal_p90 = 0.0;
  bool cold_rack_throttled = false;
};

Outcome run(bool hierarchical) {
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kCapping;
  config.battery_runtime = 0;
  config.normal_rps = 0.0;  // the generators below replace it
  config.duration = 5 * kMinute;
  const auto topology =
      power::PowerTopology::uniform(8, 4, Watts{100.0}, 0.85, 1.00);
  scenario::RunHooks hooks;
  hooks.zone = [](cluster::ClusterConfig& zone) {
    zone.lb_policy = net::LbPolicy::kSourceHash;
  };
  if (hierarchical) {
    hooks.stage = [&topology] {
      return std::make_unique<schemes::HierarchicalCappingScheme>(topology);
    };
  }
  scenario::Run run(config, std::move(hooks));
  sim::Engine& engine = run.engine();
  const workload::Catalog& catalog = run.catalog();
  cluster::Cluster& cluster = run.site().zone(0);

  // Hot flows pinned (by source hash) onto rack 0's four servers.
  std::vector<std::unique_ptr<workload::TrafficGenerator>> generators;
  std::vector<bool> covered(4, false);
  unsigned made = 0;
  for (workload::SourceId s = 0; made < 4; ++s) {
    std::uint64_t h = s;
    const auto start = static_cast<std::size_t>(splitmix64(h) % 8);
    if (start < 4 && !covered[start]) {
      covered[start] = true;
      workload::GeneratorConfig attack;
      attack.mixture = workload::Mixture::single(Catalog::kCollaFilt);
      attack.rate_rps = 75.0;
      attack.num_sources = 1;
      attack.source_base = s;
      attack.ground_truth_attack = true;
      attack.seed = 40 + made;
      generators.push_back(std::make_unique<workload::TrafficGenerator>(
          engine, catalog, attack, cluster.edge_sink()));
      ++made;
    }
  }
  // Normal users spread over many sources (and therefore both racks).
  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 200.0;
  normal.num_sources = 256;
  normal.seed = 44;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());

  // Sample PDU loads each second against the same topology.
  Outcome out;
  auto probe = engine.every(kSecond, [&] {
    std::vector<Watts> per_server;
    for (auto* node : cluster.data().servers()) {
      per_server.push_back(node->current_power());
    }
    const auto load = power::evaluate_hierarchy(topology, per_server);
    for (const auto& pdu : load.pdus) {
      if (pdu.violated()) {
        ++out.pdu_violation_slots;
        out.worst_pdu_overload =
            std::max(out.worst_pdu_overload, pdu.load - pdu.rating);
      }
    }
  });
  run.run_until(config.duration);
  probe.stop();

  out.normal_p90 =
      cluster.request_metrics().normal_latency_ms().percentile(90);
  for (std::size_t s = 4; s < 8; ++s) {
    if (cluster.server(s).level() < cluster.ladder().max_level()) {
      out.cold_rack_throttled = true;
    }
  }
  return out;
}

}  // namespace

DOPE_BENCH_FIGURE(ablation_hierarchy, "Ablation",
                  "Flat vs. hierarchy-aware capping (rack hotspot)") {
  std::cout << "(4 hot Colla-Filt flows pinned on rack 0; PDUs rated at "
               "85% of rack nameplate;\n facility feed at 100% — the "
               "cluster total never violates)\n\n";

  const auto flat = run(false);
  const auto hier = run(true);

  TextTable table({"scheme", "PDU-violation slot-samples",
                   "worst PDU overload (W)", "normal p90 (ms)",
                   "cold rack throttled?"});
  table.row("Capping (flat)", static_cast<long long>(flat.pdu_violation_slots),
            flat.worst_pdu_overload.value(), flat.normal_p90,
            flat.cold_rack_throttled ? "yes" : "no");
  table.row("Hier-Capping", static_cast<long long>(hier.pdu_violation_slots),
            hier.worst_pdu_overload.value(), hier.normal_p90,
            hier.cold_rack_throttled ? "yes" : "no");
  table.print(std::cout);

  figure.shape(
      "flat capping is blind to the rack-local violation (PDU overloads "
      "persist)",
      flat.pdu_violation_slots > 10 * std::max<std::uint64_t>(
                                          hier.pdu_violation_slots, 1));
  figure.shape("hierarchy-aware capping clears the PDU violation",
               hier.pdu_violation_slots < 30);
  figure.shape("the cold rack is never throttled by either scheme",
               !flat.cold_rack_throttled && !hier.cold_rack_throttled);
}
