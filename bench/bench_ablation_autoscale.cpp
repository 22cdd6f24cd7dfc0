// Ablation: auto-scaling as a DOPE amplifier.
//
// The paper's Section 1 argues that the reflexes data centers rely on for
// availability — load balancing and auto-scaling — are exactly what lets
// hostile requests "generate the maximum possible load on their targeted
// servers". This bench quantifies that: the same DOPE flood against a
// statically provisioned fleet vs. an auto-scaled fleet, with and without
// the attack.
#include <iostream>
#include <optional>

#include "bench/bench_util.hpp"
#include "cluster/autoscaler.hpp"

using namespace dope;

namespace {

struct Outcome {
  Watts calm_power{0.0};
  Watts attacked_power{0.0};
  std::size_t calm_serving = 0;
  std::size_t attacked_serving = 0;
  Joules energy{0.0};
};

Outcome run(bool autoscale) {
  scenario::ScenarioConfig config;
  config.battery_runtime = 0;
  config.normal_rps = 60.0;  // light diurnal trough
  config.normal_sources = 64;
  // DOPE flood after a calm phase.
  config.attack_rps = 400.0;
  config.attack_mixture = bench::heavy_blend();
  config.attack_start = 4 * kMinute;
  config.seed = 2;
  scenario::Run run(config);
  cluster::Cluster& cluster = run.site().zone(0);
  std::optional<cluster::AutoScaler> scaler;
  if (autoscale) {
    scaler.emplace(cluster,
                   cluster::AutoScalerConfig{.min_active = 2, .step = 2});
  }

  run.run_until(config.attack_start);
  Outcome out;
  out.calm_power = cluster.total_power();
  out.calm_serving =
      scaler ? scaler->serving_count() : cluster.num_servers();

  run.run_until(config.duration);
  out.attacked_power = cluster.total_power();
  out.attacked_serving =
      scaler ? scaler->serving_count() : cluster.num_servers();
  out.energy = cluster.data().total_energy();
  return out;
}

}  // namespace

DOPE_BENCH_FIGURE(ablation_autoscale, "Ablation",
                  "Auto-scaling amplifies DOPE's power leverage") {
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

  figure.shape("auto-scaling saves power while calm",
               scaled.calm_power < 0.6 * fixed.calm_power);
  figure.shape(
      "the attack makes the auto-scaler wake the whole fleet for the "
      "adversary",
      scaled.attacked_serving == 8);
  figure.shape(
      "auto-scaling widens the attacker-controllable power swing",
      scaled_swing > 1.5 * fixed_swing);
}
