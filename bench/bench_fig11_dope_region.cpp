// Figure 11: the DOPE attack region.
//
// Sweeps the (request rate, traffic type) plane and marks, for each
// point, whether (a) the aggregate power violates an oversubscribed
// budget and (b) the per-source rate would trip a DDoS-detecting
// firewall. DOPE lives where (a) holds and (b) does not: request numbers
// close to normal, far below the DoS-detection capacity, yet enough to
// break the power envelope.
#include <iostream>

#include "bench/bench_util.hpp"

using namespace dope;
using workload::Catalog;

DOPE_BENCH_FIGURE(fig11_dope_region, "Figure 11", "The DOPE attack region") {
  const Watts budget{4 * 100.0 * 0.80};  // Low-PB on the mini rack
  const double firewall_threshold = 150.0;  // per source
  const unsigned agents = 16;

  const std::vector<double> rates = {25,  50,  100, 200, 400,
                                     800, 1600, 3200};
  const std::vector<workload::RequestTypeId> types = {
      Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount,
      Catalog::kTextCont, Catalog::kSynPacket};
  const auto catalog = workload::Catalog::standard();

  std::cout << "budget = " << budget.value()
            << " W (Low-PB), firewall = "
            << firewall_threshold << " rps/source, botnet of " << agents
            << " agents\n\n";
  std::cout << "cell legend:  D = DOPE region (power violated, "
               "undetected)\n              d = detected by firewall, "
               "p = power violated AND detected,\n              . = "
               "harmless\n\n";

  TextTable grid({"rate (rps)", "Colla-Filt", "K-means", "Word-Count",
                  "Text-Cont", "SYN"});
  // For the shape checks.
  bool dope_region_exists = false;
  bool volume_never_dope = true;
  double lowest_dope_rate = 1e18;
  for (double rate : rates) {
    std::vector<std::string> row;
    row.push_back(TextTable::format_cell(rate));
    for (const auto type : types) {
      auto config = bench::testbed_scenario();
      config.attack_rps = rate;
      config.attack_mixture = workload::Mixture::single(type);
      config.attack_agents = agents;
      config.duration = 3 * kMinute;
      const auto r = scenario::run_scenario(config);
      const bool violates =
          r.peak_power > budget && r.mean_power > 0.95 * budget;
      const bool detected = rate / agents > firewall_threshold;
      std::string cell = ".";
      if (violates && !detected) {
        cell = "D";
        dope_region_exists = true;
        if (type != Catalog::kSynPacket && rate < lowest_dope_rate) {
          lowest_dope_rate = rate;
        }
        if (type == Catalog::kSynPacket) volume_never_dope = false;
      } else if (violates && detected) {
        cell = "p";
      } else if (detected) {
        cell = "d";
      }
      row.push_back(cell);
    }
    grid.add_row(std::move(row));
  }
  grid.print(std::cout);

  std::cout << "\nlowest DOPE-capable rate (heavy URL): "
            << lowest_dope_rate << " rps — close to normal traffic and "
            << "far below the " << firewall_threshold * agents
            << " rps aggregate detection capacity\n";

  figure.shape("a DOPE region exists (power violated without detection)",
               dope_region_exists);
  figure.shape("volume packets (SYN) never reach the DOPE region",
               volume_never_dope);
  figure.shape(
      "heavy URLs reach the DOPE region at near-normal request numbers",
      lowest_dope_rate <= 400.0);
  (void)catalog;
}
