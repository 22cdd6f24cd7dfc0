// Ablation: auto-scaling as a DOPE amplifier.
//
// The paper's Section 1 argues that the reflexes data centers rely on for
// availability — load balancing and auto-scaling — are exactly what lets
// hostile requests "generate the maximum possible load on their targeted
// servers". This bench quantifies that: the same DOPE flood against a
// statically provisioned fleet vs. an auto-scaled fleet, with and without
// the attack.
#include <iostream>
#include <memory>

#include "bench/bench_util.hpp"
#include "cluster/autoscaler.hpp"
#include "cluster/cluster.hpp"
#include "workload/generator.hpp"

using namespace dope;
using workload::Catalog;

namespace {

struct Outcome {
  Watts calm_power{0.0};
  Watts attacked_power{0.0};
  std::size_t calm_serving = 0;
  std::size_t attacked_serving = 0;
  Joules energy{0.0};
};

Outcome run(bool autoscale) {
  sim::Engine engine;
  const auto catalog = workload::Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cluster::Cluster cluster(engine, catalog, cc);
  std::unique_ptr<cluster::AutoScaler> scaler;
  if (autoscale) {
    cluster::AutoScalerConfig config;
    config.min_active = 2;
    config.step = 2;
    scaler = std::make_unique<cluster::AutoScaler>(cluster, config);
  }

  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 60.0;  // light diurnal trough
  normal.num_sources = 64;
  normal.seed = 5;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());

  // Calm phase.
  engine.run_until(4 * kMinute);
  Outcome out;
  out.calm_power = cluster.total_power();
  out.calm_serving =
      scaler ? scaler->serving_count() : cluster.num_servers();

  // DOPE flood.
  workload::GeneratorConfig attack;
  attack.mixture = bench::heavy_blend();
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  attack.start = engine.now();
  attack.seed = 6;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());
  engine.run_until(10 * kMinute);
  out.attacked_power = cluster.total_power();
  out.attacked_serving =
      scaler ? scaler->serving_count() : cluster.num_servers();
  out.energy = cluster.data().total_energy();
  return out;
}

}  // namespace

int main() {
  bench::figure_header("Ablation",
                       "Auto-scaling amplifies DOPE's power leverage");

  const auto fixed = run(false);
  const auto scaled = run(true);

  TextTable table({"fleet", "calm W", "calm serving", "under-DOPE W",
                   "under-DOPE serving", "total energy (J)"});
  table.row("static (8 nodes)", fixed.calm_power.value(),
            static_cast<int>(fixed.calm_serving),
            fixed.attacked_power.value(),
            static_cast<int>(fixed.attacked_serving),
            fixed.energy.value());
  table.row("auto-scaled", scaled.calm_power.value(),
            static_cast<int>(scaled.calm_serving),
            scaled.attacked_power.value(),
            static_cast<int>(scaled.attacked_serving),
            scaled.energy.value());
  table.print(std::cout);

  const double fixed_swing = fixed.attacked_power / fixed.calm_power;
  const double scaled_swing = scaled.attacked_power / scaled.calm_power;
  std::cout << "\npower swing caused by the attack: static " << fixed_swing
            << "x, auto-scaled " << scaled_swing << "x\n";

  bench::shape("auto-scaling saves power while calm",
               scaled.calm_power < 0.6 * fixed.calm_power);
  bench::shape(
      "the attack makes the auto-scaler wake the whole fleet for the "
      "adversary",
      scaled.attacked_serving == 8);
  bench::shape(
      "auto-scaling widens the attacker-controllable power swing",
      scaled_swing > 1.5 * fixed_swing);
  return 0;
}
