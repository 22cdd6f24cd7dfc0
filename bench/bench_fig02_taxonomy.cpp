// Figure 2 companion: the attack taxonomy, measured.
//
// The paper's Fig. 2 sketches three attack surfaces: internal VM power
// attacks (out of scope for an Internet adversary), classic DoS through
// the network, and the new external power attack (DOPE). This bench runs
// one representative of each *external* class against the same rack and
// shows which resource each one actually exhausts:
//
//   volume flood (UDP)  -> connectivity: switch drops packets; power low
//   app-layer flood     -> server compute: queues/timeouts; power high,
//                          but detectable (few hot sources)
//   DOPE                -> the power envelope: no network loss, no
//                          detection, budget violated
#include <iostream>
#include <utility>

#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

namespace {

struct Row {
  std::string name;
  double switch_drop = 0.0;       // network-layer loss (all traffic)
  double normal_timeout = 0.0;    // compute-layer loss for normal users
  Watts mean_power{0.0};
  std::uint64_t violations = 0;
  std::uint64_t bans = 0;
};

Row measure(const std::string& name, workload::Mixture mixture, double rate,
        unsigned agents) {
  auto config = bench::testbed_scenario();
  config.attack_rps = rate;
  config.attack_mixture = std::move(mixture);
  config.attack_agents = agents;
  config.duration = 5 * kMinute;
  config.budget = power::BudgetLevel::kLow;
  config.seed = 8;
  config.normal_sources = 128;
  config.battery_runtime = 0;
  config.power_sample_interval = kSecond;
  // Full edge: switch + firewall.
  net::FirewallConfig firewall;
  firewall.threshold_rps = 150.0;
  firewall.check_interval = 5 * kSecond;
  config.firewall = firewall;
  scenario::RunHooks hooks;
  hooks.zone = [](cluster::ClusterConfig& zone) {
    zone.network_switch =
        net::SwitchConfig{.capacity_pps = 10'000.0, .buffer_packets = 128.0};
  };
  scenario::Run run(config, std::move(hooks));
  run.run_until(config.duration);
  const auto r = run.summary();
  cluster::DataPlane& edge = run.site().zone(0).data();

  Row row;
  row.name = name;
  row.switch_drop = edge.network_switch()->drop_rate();
  const auto& n = r.normal_counts;
  row.normal_timeout =
      n.terminal() == 0
          ? 0.0
          : static_cast<double>(n.timed_out + n.rejected_queue_full) /
                static_cast<double>(n.terminal());
  row.mean_power = r.mean_power;
  row.violations = r.slot_stats.violation_slots;
  row.bans = edge.firewall()->total_bans();
  return row;
}

}  // namespace

DOPE_BENCH_FIGURE(fig02_taxonomy, "Figure 2 companion",
                  "Which resource does each attack class exhaust?") {
  const auto volume =
      measure("UDP volume flood (50k pps, 8 hot bots)",
          workload::Mixture::single(Catalog::kUdpPacket), 50'000.0, 8);
  const auto applayer =
      measure("app-layer flood (1000 rps, 4 hot bots)",
          workload::Mixture::single(Catalog::kCollaFilt), 1'000.0, 4);
  const auto dope = measure("DOPE (300 rps, 64 stealth bots)",
                            bench::heavy_blend(), 300.0, 64);

  TextTable table({"attack", "switch drop %", "normal loss %",
                   "mean power (W)", "budget violations", "fw bans"});
  for (const auto& row : {volume, applayer, dope}) {
    table.row(row.name, row.switch_drop * 100.0,
              row.normal_timeout * 100.0, row.mean_power.value(),
              static_cast<long long>(row.violations),
              static_cast<long long>(row.bans));
  }
  table.print(std::cout);

  figure.shape(
      "the volume flood exhausts connectivity (switch drops) at low power",
      volume.switch_drop > 0.5 && volume.mean_power < Watts{250.0});
  figure.shape(
      "the hot app-layer flood draws high power but gets firewalled",
      applayer.bans > 0);
  figure.shape(
      "DOPE exhausts only the power envelope: no switch loss, no bans, "
      "sustained budget violations",
      dope.switch_drop < 0.01 && dope.bans == 0 && dope.violations > 100);
}
