// Figure 10: CDF of power usage with and without firewalls.
//
// The attacker floods at 1000 rps from a handful of sources. Without a
// firewall the node power rides high; with a DDoS-deflate-style firewall
// (150 rps per-source threshold) the sources get banned — but only after
// the poll interval, so partial high-power spikes still appear early
// ("initiating delay of the defense method").
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

namespace {

struct FirewallRun {
  Percentiles power;
  double early_mean = 0.0;  // mean power in the first firewall window
  double late_mean = 0.0;   // mean power after detection settled
  std::uint64_t bans = 0;
};

FirewallRun run(workload::RequestTypeId type, bool with_firewall) {
  auto config = bench::testbed_scenario();
  config.attack_rps = 1'000.0;
  config.attack_mixture = workload::Mixture::single(type);
  config.attack_agents = 4;  // few, hot sources: 250 rps each
  config.duration = 5 * kMinute;
  if (with_firewall) {
    net::FirewallConfig firewall;
    firewall.threshold_rps = 150.0;
    firewall.check_interval = 5 * kSecond;
    firewall.ban_duration = kHour;
    config.firewall = firewall;
  }
  const auto result = scenario::run_scenario(config);
  FirewallRun out;
  for (double v : result.power_samples_normalized) out.power.add(v);
  double early_sum = 0, late_sum = 0;
  std::size_t early_n = 0, late_n = 0;
  for (const auto& s : result.power_timeline) {
    if (s.t < 5 * kSecond) {
      early_sum += s.value;
      ++early_n;
    } else if (s.t > 30 * kSecond) {
      late_sum += s.value;
      ++late_n;
    }
  }
  out.early_mean = early_n ? early_sum / static_cast<double>(early_n) : 0;
  out.late_mean = late_n ? late_sum / static_cast<double>(late_n) : 0;
  return out;
}

}  // namespace

DOPE_BENCH_FIGURE(fig10_firewall, "Figure 10",
                  "CDF of power with and without firewalls (1000 rps)") {
  const std::vector<workload::RequestTypeId> types = {
      Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount,
      Catalog::kTextCont};
  const auto catalog = workload::Catalog::standard();

  TextTable table({"type", "p50 no-fw", "p95 no-fw", "p50 fw", "p95 fw",
                   "fw early mean (W)", "fw late mean (W)"});
  std::vector<FirewallRun> without(types.size()), with(types.size());
  for (std::size_t t = 0; t < types.size(); ++t) {
    without[t] = run(types[t], false);
    with[t] = run(types[t], true);
    table.row(catalog.type(types[t]).name, without[t].power.percentile(50),
              without[t].power.percentile(95), with[t].power.percentile(50),
              with[t].power.percentile(95), with[t].early_mean,
              with[t].late_mean);
  }
  table.print(std::cout);

  bool firewall_cuts_power = true;
  bool early_spikes = true;
  for (std::size_t t = 0; t < types.size() - 1; ++t) {  // heavy types
    if (with[t].power.percentile(50) >=
        without[t].power.percentile(50) - 0.02) {
      firewall_cuts_power = false;
    }
    // Early window (pre-detection) runs hot relative to post-detection.
    if (with[t].early_mean < with[t].late_mean + 20.0) early_spikes = false;
  }
  figure.shape("the firewall eventually suppresses the high-power flood",
               firewall_cuts_power);
  figure.shape(
      "partial high-power spikes appear before the firewall reacts "
      "(initiating delay)",
      early_spikes);
  figure.shape(
      "without the firewall the flood rides near nameplate",
      without[0].power.percentile(95) > 0.9);
}
