// dopesim — command-line driver for the simulator.
//
// Runs one fully configurable scenario and prints the paper's metrics;
// optionally dumps CSVs and observability exports. Its scenario flags
// are shared with dopesweep (sweep/flags.hpp), which runs grids of them.
//
//   $ ./dopesim_cli --scheme antidope --budget low --attack-rps 400
//   $ ./dopesim_cli --scheme capping --budget-watts 520
//         --attack-type kmeans --csv out.csv --power-csv power.csv
//   $ ./dopesim_cli --help
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "antidope/suspect_list.hpp"
#include "common/argv.hpp"
#include "common/table.hpp"
#include "obs/flight.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "scenario/scenario.hpp"
#include "sweep/flags.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace dope;

void print_help() {
  std::cout <<
      R"(dopesim — data center peak power management under traffic flood

usage: dopesim_cli [options]

)";
  std::cout << sweep::kScenarioFlagsHelp;
  std::cout <<
      R"(
output
  --csv FILE           append a one-row CSV summary
  --power-csv FILE     write the power timeline
  --soc-csv FILE       write the battery state-of-charge timeline

observability (see docs/OBSERVABILITY.md)
  --metrics-out FILE   write the metrics registry as JSON
  --trace-out FILE     write the structured event trace; a .jsonl suffix
                       selects JSONL, anything else Chrome trace_event
                       (load in chrome://tracing or ui.perfetto.dev)
  --alerts             run the power-emergency watchdog and print any
                       alerts it raised
  --spans              record request-lifecycle spans; --trace-out then
                       also carries them (JSONL SpanBegin/SpanEnd records
                       or Chrome per-slot duration tracks)
  --forensics-out FILE write the per-source forensics rollup as JSON and
                       print the top suspects (implies --spans)
  --trace-cap N        keep at most N trace events (0 = hub default;
                       exports end with a TraceTruncated record when hit)
  --incidents-out FILE record per-slot time series + the flight recorder
                       and write the incident bundle as JSON (implies
                       --spans; render with dopereport)
  --dump-incident-at S force one "manual" incident snapshot at the first
                       management slot at or after sim time S seconds
                       (use with --incidents-out)
  --alert-hysteresis R:C
                       override every watchdog rule's hysteresis: R
                       breach windows to raise, C calm windows to clear
  --metrics-percentiles
                       add a p50/p95/p99 summary section to --metrics-out
  --help               this text

Grids over schemes, budgets, attacks and seeds: dopesweep, which reads
the same scenario flags (docs/SWEEP.md).
)";
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "dopesim: " << message << " (see --help)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ScenarioConfig config = sweep::default_scenario();

  std::string csv_path, power_csv_path, soc_csv_path;
  std::string metrics_path, trace_path, forensics_path, incidents_path;
  bool want_alerts = false;
  bool want_spans = false;
  bool metrics_percentiles = false;
  std::size_t trace_cap = 0;

  try {
    cli::ArgCursor args(argc, argv);
    while (args.next()) {
      const std::string& flag = args.flag();
      if (flag == "--help" || flag == "-h") {
        print_help();
        return 0;
      } else if (sweep::read_scenario_flag(args, config)) {
        continue;
      } else if (flag == "--csv") {
        csv_path = args.value();
      } else if (flag == "--power-csv") {
        power_csv_path = args.value();
      } else if (flag == "--soc-csv") {
        soc_csv_path = args.value();
      } else if (flag == "--metrics-out") {
        metrics_path = args.value();
      } else if (flag == "--trace-out") {
        trace_path = args.value();
      } else if (flag == "--alerts") {
        want_alerts = true;
      } else if (flag == "--spans") {
        want_spans = true;
      } else if (flag == "--forensics-out") {
        forensics_path = args.value();
        want_spans = true;
      } else if (flag == "--trace-cap") {
        trace_cap = args.count();
      } else if (flag == "--incidents-out") {
        incidents_path = args.value();
        want_spans = true;
      } else if (flag == "--dump-incident-at") {
        config.dump_incident_at = seconds(args.number());
      } else if (flag == "--alert-hysteresis") {
        const std::string value = args.value();
        const auto colon = value.find(':');
        if (colon == std::string::npos) {
          throw std::invalid_argument(
              "--alert-hysteresis wants RAISE:CLEAR, e.g. 3:5");
        }
        config.alert_raise_windows = static_cast<unsigned>(
            args.as_count(value.substr(0, colon), UINT_MAX));
        config.alert_clear_windows = static_cast<unsigned>(
            args.as_count(value.substr(colon + 1), UINT_MAX));
      } else if (flag == "--metrics-percentiles") {
        metrics_percentiles = true;
      } else {
        args.unknown();
      }
    }
    sweep::check_scenario_flags(config);
  } catch (const std::exception& e) {
    fail(e.what());
  }

  std::unique_ptr<obs::Hub> hub;
  if (!metrics_path.empty() || !trace_path.empty() || want_alerts ||
      want_spans) {
    obs::HubConfig hub_config;
    hub_config.enable_spans = want_spans;
    if (!incidents_path.empty()) {
      hub_config.enable_timeseries = true;
      hub_config.enable_flight = true;
    }
    hub = std::make_unique<obs::Hub>(hub_config);
    config.obs = hub.get();
    config.default_alert_rules = want_alerts;
    config.trace_cap = trace_cap;
  }

  scenario::ScenarioResult r;
  try {
    r = scenario::run_scenario(config);
  } catch (const std::exception& e) {
    fail(e.what());  // a scenario the flags describe but cannot run
  }

  std::cout << "== dopesim: " << r.scheme << " @ " << r.budget.value()
            << " W, "
            << config.normal_rps << " rps normal, " << config.attack_rps
            << " rps attack, " << to_seconds(config.duration)
            << " s ==\n\n";
  TextTable table({"metric", "value"});
  table.row("normal mean RT (ms)", r.mean_ms);
  table.row("normal p50 / p90 / p95 / p99 (ms)",
            TextTable::format_cell(r.p50_ms) + " / " +
                TextTable::format_cell(r.p90_ms) + " / " +
                TextTable::format_cell(r.p95_ms) + " / " +
                TextTable::format_cell(r.p99_ms));
  table.row("availability", r.availability);
  table.row("drop fraction", r.drop_fraction);
  table.row("mean / peak power (W)",
            TextTable::format_cell(r.mean_power.value()) + " / " +
                TextTable::format_cell(r.peak_power.value()));
  table.row("utility energy (J)", r.energy.utility_total().value());
  table.row("battery energy (J)", r.energy.battery.value());
  table.row("demand violation slots",
            static_cast<long long>(r.slot_stats.violation_slots));
  table.row("utility violation slots",
            static_cast<long long>(r.slot_stats.utility_violation_slots));
  table.row("outages", static_cast<long long>(r.slot_stats.outages));
  table.print(std::cout);

  if (!r.zones.empty()) {
    std::cout << "\n== zones (" << site::glb_policy_name(config.glb_policy)
              << " GLB, " << site::divider_name(config.site_divider)
              << " divider) ==\n";
    TextTable zone_table({"zone", "budget (W)", "availability",
                          "violation slots", "min level",
                          "mean freq (GHz)"});
    for (std::size_t z = 0; z < r.zones.size(); ++z) {
      const auto& zone = r.zones[z];
      zone_table.row(static_cast<long long>(z), zone.budget.value(),
                     zone.availability,
                     static_cast<long long>(zone.violation_slots),
                     static_cast<long long>(zone.min_level_seen),
                     zone.final_mean_frequency.value());
    }
    zone_table.print(std::cout);
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) fail("cannot write " + csv_path);
    scenario::write_results_csv(out, {r});
    std::cout << "\nwrote " << csv_path << "\n";
  }
  if (!power_csv_path.empty()) {
    std::ofstream out(power_csv_path);
    if (!out) fail("cannot write " + power_csv_path);
    scenario::write_timeline_csv(out, r.power_timeline);
    std::cout << "wrote " << power_csv_path << "\n";
  }
  if (!soc_csv_path.empty()) {
    std::ofstream out(soc_csv_path);
    if (!out) fail("cannot write " + soc_csv_path);
    scenario::write_timeline_csv(out, r.battery_soc_timeline);
    std::cout << "wrote " << soc_csv_path << "\n";
  }

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) fail("cannot write " + metrics_path);
    hub->registry().write_json(out, metrics_percentiles);
    std::cout << "wrote " << metrics_path << " ("
              << hub->registry().size() << " metrics)\n";
  }
  if (!incidents_path.empty()) {
    std::ofstream out(incidents_path);
    if (!out) fail("cannot write " + incidents_path);
    hub->flight()->write_json(out);
    std::cout << "wrote " << incidents_path << " ("
              << hub->flight()->incident_count() << " incidents, "
              << hub->flight()->triggers() << " triggers)\n";
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) fail("cannot write " + trace_path);
    const bool jsonl = trace_path.size() >= 6 &&
                       trace_path.rfind(".jsonl") == trace_path.size() - 6;
    if (jsonl) {
      hub->write_trace_jsonl(out);
    } else {
      hub->write_chrome_trace(out);
    }
    std::cout << "wrote " << trace_path << " ("
              << hub->trace().recorded() << " events, "
              << hub->trace().distinct_types() << " types";
    if (hub->spans() != nullptr) {
      std::cout << ", " << hub->spans()->recorded() << " spans";
    }
    std::cout << ", " << (jsonl ? "jsonl" : "chrome") << ")\n";
  }
  if (!forensics_path.empty()) {
    const auto forensics = obs::Forensics::build(
        *hub->spans(), hub->trace(), config.duration);
    std::ofstream out(forensics_path);
    if (!out) fail("cannot write " + forensics_path);
    forensics.write_json(out);
    std::cout << "wrote " << forensics_path << " ("
              << forensics.sources().size() << " sources, "
              << forensics.violation_events() << " violation events)\n";

    const auto catalog = workload::Catalog::standard();
    // Anti-DOPE's own classification, for cross-checking the ranking.
    std::unique_ptr<antidope::SuspectList> suspects;
    if (config.scheme == scenario::SchemeKind::kAntiDope) {
      suspects = std::make_unique<antidope::SuspectList>(
          antidope::SuspectList::from_catalog(
              catalog, config.antidope.suspect_power_threshold));
    }
    std::cout << "\n== forensics: top suspects by attributed energy ==\n";
    TextTable suspect_table({"rank", "source", "requests", "joules",
                             "occupancy (ms)", "violation overlaps",
                             "dominant class", "suspect?"});
    std::size_t rank = 1;
    for (const auto& s : forensics.top_by_joules(10)) {
      const std::string class_name =
          s.dominant_class < catalog.size()
              ? catalog.type(s.dominant_class).name
              : "?";
      const std::string flagged =
          suspects == nullptr
              ? "-"
              : (suspects->suspicious(s.dominant_class) ? "yes" : "no");
      suspect_table.row(static_cast<long long>(rank++),
                        static_cast<long long>(s.source_id),
                        static_cast<long long>(s.requests),
                        s.joules.value(), s.occupancy_ms,
                        static_cast<long long>(s.violation_overlaps),
                        class_name, flagged);
    }
    suspect_table.print(std::cout);
  }
  if (want_alerts) {
    const auto& alerts = hub->watchdog().alerts();
    std::cout << "\n== watchdog: " << alerts.size() << " alert(s), "
              << hub->watchdog().active_count() << " still active ==\n";
    if (!alerts.empty()) {
      TextTable table({"alert", "signal", "raised_s", "cleared_s", "value"});
      for (const auto& a : alerts) {
        table.row(a.rule, a.signal, to_seconds(a.raised_at),
                  a.active() ? std::string("-")
                             : TextTable::format_cell(
                                   to_seconds(a.cleared_at)),
                  a.value);
      }
      table.print(std::cout);
    }
  }
  return 0;
}
