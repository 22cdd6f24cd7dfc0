// Figure 3: power profile of typical cyber-attacks over a 600 s window.
//
// Launches each canned attack (Table 1 tools / Section 3.1) at maximum
// force against the uncapped EC cluster and reports the power trace. The
// paper's observation: application-layer floods (HTTP, DNS) produce high
// power peaks; volume floods (SYN, UDP) and Slowloris barely move power.
#include <iostream>
#include <map>

#include "attack/profiles.hpp"
#include "bench/bench_util.hpp"

using namespace dope;

namespace {

struct TraceResult {
  attack::AttackKind kind;
  double mean_power = 0.0;
  double peak_power = 0.0;
  std::vector<metrics::Sample> timeline;
};

TraceResult run_attack(attack::AttackKind kind) {
  scenario::ScenarioConfig config = bench::testbed_scenario();
  config.duration = 600 * kSecond;  // the paper's observation window
  // "Maximum force": volume attacks send far more packets than
  // app-layer floods can.
  switch (kind) {
    case attack::AttackKind::kSynFlood:
    case attack::AttackKind::kUdpFlood:
      config.attack_rps = 20'000.0;  // volume floods move packets
      break;
    case attack::AttackKind::kDnsFlood:
      config.attack_rps = 5'000.0;  // DNS floods are high-rate queries
      break;
    case attack::AttackKind::kSlowloris:
      config.attack_rps = 50.0;  // few held-open connections
      break;
    default:
      config.attack_rps = 500.0;  // HTTP GET flood
      break;
  }
  config.attack_mixture = attack::attack_mixture(kind);
  config.attack_agents = 128;

  TraceResult result;
  result.kind = kind;
  const auto r = scenario::run_scenario(config);
  result.mean_power = r.mean_power.value();
  result.peak_power = r.peak_power.value();
  result.timeline = r.power_timeline;
  return result;
}

}  // namespace

DOPE_BENCH_FIGURE(fig03_attack_power, "Figure 3",
                  "Power profile of typical cyber-attacks") {
  std::cout << "(workload catalog: Table 1; mini rack: 4x100 W leaf nodes, "
               "150 rps normal EC traffic, uncapped)\n";

  std::map<attack::AttackKind, TraceResult> results;
  for (const auto kind : {attack::AttackKind::kHttpFlood,
                          attack::AttackKind::kDnsFlood,
                          attack::AttackKind::kSynFlood,
                          attack::AttackKind::kUdpFlood,
                          attack::AttackKind::kSlowloris}) {
    results[kind] = run_attack(kind);
  }

  // Power trace, 60 s buckets (the figure's time axis).
  TextTable trace({"t(s)", "HTTP", "DNS", "SYN", "UDP", "Slowloris"});
  const auto bucket_mean = [](const TraceResult& r, Time lo, Time hi) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& s : r.timeline) {
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
    const char* cls = r.peak_power > 350   ? "high"
                      : r.peak_power > 250 ? "medium"
                                           : "low";
    summary.row(attack::attack_name(kind), r.mean_power, r.peak_power, cls);
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
