// Figure 5: power caused by different traffic types at rate 100 rps.
//
//  (a) CDF of normalised power per traffic type (plus normal AliOS
//      users): abnormal traffic is higher and more stable than normal;
//      Colla-Filt's curve is right-most and sub-vertical (it saturates
//      node power);
//  (b) average power *per request* by type: K-means consumes the most
//      power per request; volume-based traffic consumes much less.
#include <iostream>

#include "antidope/profiler.hpp"
#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

namespace {

Percentiles power_cdf(std::optional<workload::RequestTypeId> type,
                      double rate = 100.0) {
  auto config = bench::testbed_scenario();
  if (type.has_value()) {
    // Attack traffic at the figure's rate, on top of normal users.
    config.attack_rps = rate;
    config.attack_mixture = workload::Mixture::single(*type);
  }
  const auto result = scenario::run_scenario(config);
  Percentiles dist;
  for (double v : result.power_samples_normalized) dist.add(v);
  return dist;
}

}  // namespace

DOPE_BENCH_FIGURE(
    fig05_type_power, "Figure 5",
    "Power of different traffic types (volume-based DoS is low-power)") {
  // ---- (a) per-type power CDFs at 100 rps ----
  std::cout << "\n(a) CDF of power (normalised to nameplate) at 100 rps\n";
  const auto colla = power_cdf(Catalog::kCollaFilt);
  const auto kmeans = power_cdf(Catalog::kKMeans);
  const auto wordcount = power_cdf(Catalog::kWordCount);
  const auto textcont = power_cdf(Catalog::kTextCont);
  const auto normal_only = power_cdf(std::nullopt);

  TextTable a({"percentile", "Colla-Filt", "K-means", "Word-Count",
               "Text-Cont", "normal only"});
  for (double p : {5.0, 25.0, 50.0, 75.0, 95.0}) {
    a.row(p, colla.percentile(p), kmeans.percentile(p),
          wordcount.percentile(p), textcont.percentile(p),
          normal_only.percentile(p));
  }
  a.print(std::cout);

  // ---- (b) measured average power per request (offline profiler) ----
  std::cout << "\n(b) measured average power per request (W)\n";
  const auto catalog = workload::Catalog::standard();
  antidope::ProfilerConfig profiler_config;
  profiler_config.duration = 30 * kSecond;
  const auto profiles = antidope::profile_catalog(
      catalog, {}, power::DvfsLadder::make(), profiler_config);
  TextTable b({"type", "power/request (W)", "saturated node (W)",
               "base latency (ms)"});
  for (const auto& p : profiles) {
    b.row(catalog.type(p.type).name, p.per_request_power.value(),
          p.saturated_node_power.value(), p.base_latency_ms);
  }
  b.print(std::cout);

  // ---- shape checks ----
  figure.shape(
      "abnormal (heavy) traffic power is higher than normal users'",
      colla.percentile(50) > normal_only.percentile(50) + 0.05 &&
          kmeans.percentile(50) > normal_only.percentile(50));
  figure.shape("Colla-Filt's CDF is right-most",
               colla.percentile(50) >= kmeans.percentile(50) &&
                   colla.percentile(50) >= wordcount.percentile(50));
  // Sub-verticality appears once Colla-Filt expends the maximum power
  // resource across all servers (saturating rate for our scaled model).
  const auto colla_sat = power_cdf(Catalog::kCollaFilt, 300.0);
  const double sat_spread =
      colla_sat.percentile(95) - colla_sat.percentile(5);
  figure.shape(
      "saturating Colla-Filt's CDF is sub-vertical near nameplate",
      sat_spread < 0.05 && colla_sat.percentile(50) > 0.9);
  const auto& per_req = profiles;
  double kmeans_w = 0, volume_max = 0;
  for (const auto& p : per_req) {
    if (p.type == Catalog::kKMeans) kmeans_w = p.per_request_power.value();
    if (p.type == Catalog::kSynPacket || p.type == Catalog::kUdpPacket) {
      volume_max = std::max(volume_max, p.per_request_power.value());
    }
  }
  bool kmeans_highest = true;
  for (const auto& p : per_req) {
    if (p.per_request_power.value() > kmeans_w + 1e-9) {
      kmeans_highest = false;
    }
  }
  figure.shape("K-means consumes the most power per request",
               kmeans_highest);
  figure.shape("volume-based traffic consumes much less power per request",
               volume_max < 0.1 * kmeans_w);
}
