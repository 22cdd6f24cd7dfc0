// dopesim — command-line driver for the simulator.
//
// Runs one fully configurable scenario and prints the paper's metrics;
// optionally dumps CSVs for plotting. This is the entry point a
// downstream user scripts parameter sweeps with.
//
//   $ ./dopesim_cli --scheme antidope --budget low --attack-rps 400
//   $ ./dopesim_cli --scheme capping --budget-watts 520
//         --attack-type kmeans --csv out.csv --power-csv power.csv
//   $ ./dopesim_cli --help
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "antidope/suspect_list.hpp"
#include "common/table.hpp"
#include "obs/flight.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "scenario/scenario.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace dope;

void print_help() {
  std::cout <<
      R"(dopesim — data center peak power management under traffic flood

usage: dopesim_cli [options]

cluster
  --servers N          leaf nodes (default 8)
  --budget LEVEL       normal | high | medium | low (default low)
  --budget-watts W     explicit supply in watts (overrides --budget)
  --battery-min M      battery runtime in minutes at full load (default 2)
  --firewall           enable the DDoS-deflate firewall (150 rps/source)
  --breaker-watts W    protect the utility feed with a breaker rated W
  --slot-ms MS         management slot (default 1000)

site (multi-zone; see docs/SITE.md)
  --zones N            zone count (default 1 = the paper's single
                       cluster; >= 2 puts N identical zones behind a
                       global LB, each with --servers servers and its
                       own scheme)
  --glb POLICY         weighted | least-loaded | affinity (default
                       weighted)
  --divider KIND       static | demand | headroom — how the facility
                       budget is split across zones (default static)
  --attack-zone Z      concentrate attack traffic on zone Z's front
                       door instead of the global LB (0 <= Z < N)

scheme
  --scheme NAME        none | capping | shaving | token | antidope
                       (default antidope)
  --online             Anti-DOPE: learn the suspect list online
  --per-node           Anti-DOPE: per-node DPM throttling (TL(p,q))
  --pool-fraction F    Anti-DOPE: suspect pool share (default 0.25)

traffic
  --normal-rps R       normal user rate (default 300)
  --attack-rps R       DOPE attack rate (default 400; 0 disables)
  --attack-type T      colla-filt | kmeans | wordcount | blend (default)
  --agents N           attack botnet size (default 64)
  --attack-start-s S   attack onset time (default 0)

run
  --duration-s S       observation window (default 600, the paper's 10 min)
  --seed N             RNG seed (default 42)
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

sweep mode (see docs/SWEEP.md; any --sweep-* flag selects it — the
flags above define the base scenario, each axis multiplies the grid)
  --sweep-schemes LIST comma-separated scheme names
  --sweep-budgets LIST comma-separated budget levels
  --sweep-attacks LIST none | dope:RPS | pulse:RPS:PERIOD_S
  --sweep-seeds LIST   comma-separated RNG seeds
  --threads N          sweep worker threads; 0 = hardware concurrency
                       (default; results are identical either way)
  --sweep-json FILE    write the merged sweep report
  --sweep-csv FILE     write one CSV row per run
  --help               this text
)";
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "dopesim: " << message << " (see --help)\n";
  std::exit(2);
}

double number_arg(const std::string& flag, const std::string& value) {
  try {
    return std::stod(value);
  } catch (...) {
    fail("bad numeric value for " + flag + ": " + value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.budget = power::BudgetLevel::kLow;
  config.normal_rps = 300.0;
  config.attack_rps = 400.0;
  config.attack_mixture = workload::Mixture(
      {workload::Catalog::kCollaFilt, workload::Catalog::kKMeans,
       workload::Catalog::kWordCount},
      {1.0, 1.0, 1.0});
  config.duration = 10 * kMinute;
  config.seed = 42;

  std::string csv_path, power_csv_path, soc_csv_path;
  std::string metrics_path, trace_path, forensics_path, incidents_path;
  bool want_alerts = false;
  bool want_spans = false;
  bool metrics_percentiles = false;
  std::size_t trace_cap = 0;

  std::string sweep_schemes, sweep_budgets, sweep_attacks, sweep_seeds;
  std::string sweep_json_path, sweep_csv_path;
  std::size_t threads = 0;
  bool sweep_mode = false;

  const std::map<std::string, scenario::SchemeKind> schemes = {
      {"none", scenario::SchemeKind::kNone},
      {"capping", scenario::SchemeKind::kCapping},
      {"shaving", scenario::SchemeKind::kShaving},
      {"token", scenario::SchemeKind::kToken},
      {"antidope", scenario::SchemeKind::kAntiDope},
  };
  const std::map<std::string, power::BudgetLevel> budgets = {
      {"normal", power::BudgetLevel::kNormal},
      {"high", power::BudgetLevel::kHigh},
      {"medium", power::BudgetLevel::kMedium},
      {"low", power::BudgetLevel::kLow},
  };
  const std::map<std::string, workload::Mixture> attack_types = {
      {"colla-filt",
       workload::Mixture::single(workload::Catalog::kCollaFilt)},
      {"kmeans", workload::Mixture::single(workload::Catalog::kKMeans)},
      {"wordcount",
       workload::Mixture::single(workload::Catalog::kWordCount)},
      {"blend", *config.attack_mixture},
  };

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) fail("missing value for " + flag);
      return args[++i];
    };
    if (flag == "--help" || flag == "-h") {
      print_help();
      return 0;
    } else if (flag == "--servers") {
      config.num_servers = static_cast<std::size_t>(
          number_arg(flag, next()));
    } else if (flag == "--budget") {
      const auto it = budgets.find(next());
      if (it == budgets.end()) fail("unknown budget level");
      config.budget = it->second;
    } else if (flag == "--budget-watts") {
      config.budget_override = Watts{number_arg(flag, next())};
    } else if (flag == "--battery-min") {
      config.battery_runtime =
          static_cast<Duration>(number_arg(flag, next()) * kMinute);
    } else if (flag == "--firewall") {
      net::FirewallConfig firewall;
      firewall.threshold_rps = 150.0;
      firewall.check_interval = 5 * kSecond;
      config.firewall = firewall;
    } else if (flag == "--breaker-watts") {
      power::BreakerSpec breaker;
      breaker.rated = Watts{number_arg(flag, next())};
      config.breaker = breaker;
    } else if (flag == "--slot-ms") {
      config.slot = millis(number_arg(flag, next()));
    } else if (flag == "--zones") {
      config.num_zones =
          static_cast<std::size_t>(number_arg(flag, next()));
      if (config.num_zones < 1) fail("--zones needs at least 1");
    } else if (flag == "--glb") {
      const std::string name = next();
      if (name == "weighted") {
        config.glb_policy = site::GlobalLbPolicy::kWeighted;
      } else if (name == "least-loaded") {
        config.glb_policy = site::GlobalLbPolicy::kLeastLoaded;
      } else if (name == "affinity") {
        config.glb_policy = site::GlobalLbPolicy::kZoneAffinity;
      } else {
        fail("unknown GLB policy: " + name);
      }
    } else if (flag == "--divider") {
      const std::string name = next();
      if (name == "static") {
        config.site_divider = site::DividerKind::kStatic;
      } else if (name == "demand") {
        config.site_divider = site::DividerKind::kDemandProportional;
      } else if (name == "headroom") {
        config.site_divider = site::DividerKind::kHeadroomAware;
      } else {
        fail("unknown divider: " + name);
      }
    } else if (flag == "--attack-zone") {
      config.attack_zone = static_cast<int>(number_arg(flag, next()));
    } else if (flag == "--scheme") {
      const auto it = schemes.find(next());
      if (it == schemes.end()) fail("unknown scheme");
      config.scheme = it->second;
    } else if (flag == "--online") {
      config.antidope.online_learning = true;
    } else if (flag == "--per-node") {
      config.antidope.per_node_throttling = true;
    } else if (flag == "--pool-fraction") {
      config.antidope.suspect_pool_fraction = number_arg(flag, next());
    } else if (flag == "--normal-rps") {
      config.normal_rps = number_arg(flag, next());
    } else if (flag == "--attack-rps") {
      config.attack_rps = number_arg(flag, next());
    } else if (flag == "--attack-type") {
      const auto it = attack_types.find(next());
      if (it == attack_types.end()) fail("unknown attack type");
      config.attack_mixture = it->second;
    } else if (flag == "--agents") {
      config.attack_agents =
          static_cast<unsigned>(number_arg(flag, next()));
    } else if (flag == "--attack-start-s") {
      config.attack_start = seconds(number_arg(flag, next()));
    } else if (flag == "--duration-s") {
      config.duration = seconds(number_arg(flag, next()));
    } else if (flag == "--seed") {
      config.seed = static_cast<std::uint64_t>(number_arg(flag, next()));
    } else if (flag == "--csv") {
      csv_path = next();
    } else if (flag == "--power-csv") {
      power_csv_path = next();
    } else if (flag == "--soc-csv") {
      soc_csv_path = next();
    } else if (flag == "--metrics-out") {
      metrics_path = next();
    } else if (flag == "--trace-out") {
      trace_path = next();
    } else if (flag == "--alerts") {
      want_alerts = true;
    } else if (flag == "--spans") {
      want_spans = true;
    } else if (flag == "--forensics-out") {
      forensics_path = next();
      want_spans = true;
    } else if (flag == "--trace-cap") {
      trace_cap = static_cast<std::size_t>(number_arg(flag, next()));
    } else if (flag == "--incidents-out") {
      incidents_path = next();
      want_spans = true;
    } else if (flag == "--dump-incident-at") {
      config.dump_incident_at = seconds(number_arg(flag, next()));
    } else if (flag == "--alert-hysteresis") {
      const std::string value = next();
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        fail("--alert-hysteresis wants RAISE:CLEAR, e.g. 3:5");
      }
      config.alert_raise_windows = static_cast<unsigned>(
          number_arg(flag, value.substr(0, colon)));
      config.alert_clear_windows = static_cast<unsigned>(
          number_arg(flag, value.substr(colon + 1)));
    } else if (flag == "--metrics-percentiles") {
      metrics_percentiles = true;
    } else if (flag == "--sweep-schemes") {
      sweep_schemes = next();
      sweep_mode = true;
    } else if (flag == "--sweep-budgets") {
      sweep_budgets = next();
      sweep_mode = true;
    } else if (flag == "--sweep-attacks") {
      sweep_attacks = next();
      sweep_mode = true;
    } else if (flag == "--sweep-seeds") {
      sweep_seeds = next();
      sweep_mode = true;
    } else if (flag == "--sweep-json") {
      sweep_json_path = next();
      sweep_mode = true;
    } else if (flag == "--sweep-csv") {
      sweep_csv_path = next();
      sweep_mode = true;
    } else if (flag == "--threads") {
      threads = static_cast<std::size_t>(number_arg(flag, next()));
    } else {
      fail("unknown flag: " + flag);
    }
  }
  if (config.attack_zone < -1 ||
      config.attack_zone >= static_cast<int>(config.num_zones)) {
    fail("--attack-zone " + std::to_string(config.attack_zone) +
         " is outside the site's " + std::to_string(config.num_zones) +
         " zone(s)");
  }

  if (sweep_mode) {
    sweep::GridSpec grid;
    grid.base = config;
    try {
      if (!sweep_schemes.empty()) {
        grid.schemes = sweep::parse_scheme_list(sweep_schemes);
      }
      if (!sweep_budgets.empty()) {
        grid.budgets = sweep::parse_budget_list(sweep_budgets);
      }
      if (!sweep_attacks.empty()) {
        grid.attacks =
            sweep::parse_attack_list(sweep_attacks, grid.base.duration);
      }
      if (!sweep_seeds.empty()) {
        grid.seeds = sweep::parse_seed_list(sweep_seeds);
      }
    } catch (const std::exception& e) {
      fail(e.what());
    }

    const auto sweep_result =
        sweep::SweepRunner({.threads = threads}).run(grid);
    std::cout << "== dopesim sweep: " << sweep_result.runs.size()
              << " runs (" << sweep_result.failures << " failed) ==\n\n";
    TextTable table({"run", "mean (ms)", "p90 (ms)", "availability",
                     "peak (W)", "status"});
    for (const auto& run : sweep_result.runs) {
      if (run.ok) {
        table.row(run.point.label(), run.result.mean_ms,
                  run.result.p90_ms, run.result.availability,
                  run.result.peak_power.value(), "ok");
      } else {
        table.row(run.point.label(), "-", "-", "-", "-",
                  "FAILED: " + run.error);
      }
    }
    table.print(std::cout);

    if (!sweep_json_path.empty()) {
      std::ofstream out(sweep_json_path);
      if (!out) fail("cannot write " + sweep_json_path);
      sweep::write_json(out, grid, sweep_result);
      std::cout << "\nwrote " << sweep_json_path << "\n";
    }
    if (!sweep_csv_path.empty()) {
      std::ofstream out(sweep_csv_path);
      if (!out) fail("cannot write " + sweep_csv_path);
      sweep::write_csv(out, sweep_result);
      std::cout << "wrote " << sweep_csv_path << "\n";
    }
    return sweep_result.failures == 0 ? 0 : 1;
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

  const auto r = scenario::run_scenario(config);

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
