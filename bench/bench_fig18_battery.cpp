// Figure 18: batteries' behaviour under different power management
// schemes when facing cyber-attacks.
//
// Paper: conventional shave-first designs heavily discharge under DOPE —
// a long high peak exhausts the (2-minute) battery; Anti-DOPE uses the
// battery only as a transition medium: it discharges when the attack
// changes and recharges as soon as the V/F settings are reconfigured.
// The figure's dark line is an attack that switches between the three
// DOPE types every 2 minutes.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

namespace {

/// SoC timeline for a scheme under a steady heavy-blend DOPE.
std::vector<metrics::Sample> steady_soc(scenario::SchemeKind scheme,
                                        Duration duration) {
  auto config = bench::eval_scenario(scheme, power::BudgetLevel::kLow);
  config.duration = duration;
  return scenario::run_scenario(config).battery_soc_timeline;
}

double soc_at(const std::vector<metrics::Sample>& soc, Time t) {
  double last = 1.0;
  for (const auto& s : soc) {
    if (s.t > t) break;
    last = s.value;
  }
  return last;
}

}  // namespace

DOPE_BENCH_FIGURE(fig18_battery, "Figure 18",
                  "Battery behaviour per scheme under attack") {
  const Duration window = 15 * kMinute;
  const auto shaving = steady_soc(scenario::SchemeKind::kShaving, window);
  const auto antidope = steady_soc(scenario::SchemeKind::kAntiDope, window);
  const auto capping = steady_soc(scenario::SchemeKind::kCapping, window);

  std::cout << "\nbattery state of charge, steady 400 rps heavy DOPE, "
               "Low-PB, 2-minute battery\n";
  TextTable table({"t (s)", "Shaving", "Capping", "Anti-DOPE"});
  for (int b = 0; b <= 15; ++b) {
    const Time t = b * kMinute;
    table.row(b * 60, soc_at(shaving, t), soc_at(capping, t),
              soc_at(antidope, t));
  }
  table.print(std::cout);

  // ---- the attack-switching case (the figure's dark line) ----
  // The Anti-DOPE scenario as an open run, so the attack can rotate
  // between the three DOPE types every 2 minutes.
  auto config = bench::eval_scenario(scenario::SchemeKind::kAntiDope,
                                     power::BudgetLevel::kLow);
  config.budget_override = Watts{8 * 100.0 * 0.55};  // deficit when confined
  config.attack_mixture = workload::Mixture::single(Catalog::kCollaFilt);
  config.duration = window;
  scenario::Run run(config);
  workload::TrafficGenerator& attack = *run.attack();
  const workload::RequestTypeId rotation[] = {
      Catalog::kKMeans, Catalog::kWordCount, Catalog::kCollaFilt};
  for (int i = 0; i < 7; ++i) {
    run.engine().schedule_at((i + 1) * 2 * kMinute, [&attack, &rotation, i] {
      attack.set_mixture(workload::Mixture::single(rotation[i % 3]));
    });
  }
  run.run_until(window);
  const auto switching = run.summary().battery_soc_timeline;
  const battery::Battery& battery = *run.site().zone(0).battery();

  std::cout << "\nAnti-DOPE with the attack type switching every 2 min\n";
  TextTable sw({"t (s)", "SoC"});
  for (int b = 0; b <= 15; ++b) {
    sw.row(b * 60, soc_at(switching, b * kMinute));
  }
  sw.print(std::cout);
  std::cout << "battery discharge events: "
            << battery.discharge_events() << "\n";

  // ---- shape checks ----
  figure.shape(
      "Shaving heavily discharges and exhausts the battery under the "
      "long DOPE peak",
      soc_at(shaving, 14 * kMinute) < 0.15);
  figure.shape("Capping never touches the battery",
               soc_at(capping, 14 * kMinute) > 0.999);
  figure.shape(
      "Anti-DOPE keeps the battery nearly full under a steady attack",
      soc_at(antidope, 14 * kMinute) > 0.85);
  figure.shape(
      "with switching attacks the battery discharges at transitions and "
      "recharges after V/F reconfiguration",
      battery.discharge_events() > 0 &&
          soc_at(switching, window - kMinute) > 0.5);
}
