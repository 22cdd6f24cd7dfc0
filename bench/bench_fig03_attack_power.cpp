// Figure 3: power profile of typical cyber-attacks over a 600 s window.
//
// Launches each canned attack (Table 1 tools / Section 3.1) at maximum
// force against the uncapped EC cluster and reports the power trace. The
// paper's observation: application-layer floods (HTTP, DNS) produce high
// power peaks; volume floods (SYN, UDP) and Slowloris barely move power.
#include <iostream>
#include <map>
#include <utility>

#include "attack/profiles.hpp"
#include "bench/bench_util.hpp"

using namespace dope;

namespace {

/// "Maximum force": volume attacks send far more packets than app-layer
/// floods can.
double max_force_rps(attack::AttackKind kind) {
  switch (kind) {
    case attack::AttackKind::kSynFlood:
    case attack::AttackKind::kUdpFlood:
      return 20'000.0;  // volume floods move packets
    case attack::AttackKind::kDnsFlood:
      return 5'000.0;  // DNS floods are high-rate queries
    case attack::AttackKind::kSlowloris:
      return 50.0;  // few held-open connections
    default:
      return 500.0;  // HTTP GET flood
  }
}

}  // namespace

DOPE_BENCH_FIGURE(fig03_attack_power, "Figure 3",
                  "Power profile of typical cyber-attacks") {
  std::cout << "(workload catalog: Table 1; mini rack: 4x100 W leaf nodes, "
               "150 rps normal EC traffic, uncapped)\n";

  const attack::AttackKind kinds[] = {
      attack::AttackKind::kHttpFlood, attack::AttackKind::kDnsFlood,
      attack::AttackKind::kSynFlood, attack::AttackKind::kUdpFlood,
      attack::AttackKind::kSlowloris};
  sweep::GridSpec grid;
  grid.base = bench::testbed_scenario();
  grid.base.duration = 600 * kSecond;  // the paper's observation window
  grid.base.attack_agents = 128;
  for (const auto kind : kinds) {
    sweep::AttackProfile profile;
    profile.name = attack::attack_name(kind);
    profile.rps = max_force_rps(kind);
    profile.mixture = attack::attack_mixture(kind);
    grid.attacks.push_back(std::move(profile));
  }
  auto runs = figure.run_grid(grid);
  std::map<attack::AttackKind, scenario::ScenarioResult> results;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    results[kinds[i]] = std::move(runs[i]);
  }

  // Power trace, 60 s buckets (the figure's time axis).
  TextTable trace({"t(s)", "HTTP", "DNS", "SYN", "UDP", "Slowloris"});
  const auto bucket_mean = [](const scenario::ScenarioResult& r, Time lo,
                               Time hi) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& s : r.power_timeline) {
      if (s.t >= lo && s.t < hi) {
        sum += s.value;
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  for (int b = 0; b < 10; ++b) {
    const Time lo = b * 60 * kSecond;
    const Time hi = lo + 60 * kSecond;
    trace.row(b * 60,
              bucket_mean(results[attack::AttackKind::kHttpFlood], lo, hi),
              bucket_mean(results[attack::AttackKind::kDnsFlood], lo, hi),
              bucket_mean(results[attack::AttackKind::kSynFlood], lo, hi),
              bucket_mean(results[attack::AttackKind::kUdpFlood], lo, hi),
              bucket_mean(results[attack::AttackKind::kSlowloris], lo, hi));
  }
  trace.print(std::cout);

  TextTable summary({"attack", "mean power (W)", "peak power (W)",
                     "power class"});
  for (const auto& [kind, r] : results) {
    const double peak = r.peak_power.value();
    const char* cls = peak > 350 ? "high" : peak > 250 ? "medium" : "low";
    summary.row(attack::attack_name(kind), r.mean_power.value(), peak, cls);
  }
  std::cout << "\n";
  summary.print(std::cout);

  const auto& http = results[attack::AttackKind::kHttpFlood];
  const auto& dns = results[attack::AttackKind::kDnsFlood];
  const auto& syn = results[attack::AttackKind::kSynFlood];
  const auto& udp = results[attack::AttackKind::kUdpFlood];
  const auto& slow = results[attack::AttackKind::kSlowloris];
  figure.shape("application-layer HTTP flood draws the highest power",
               http.mean_power > dns.mean_power &&
                   http.mean_power > syn.mean_power);
  figure.shape("volume floods (SYN/UDP) stay in the low-power class",
               syn.peak_power < 0.75 * http.peak_power &&
                   udp.peak_power < 0.75 * http.peak_power);
  figure.shape("slowloris power is negligible",
               slow.mean_power < 0.7 * http.mean_power);
}
