#include "scenario/scenario.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/csv.hpp"
#include "common/expect.hpp"
#include "common/parallel.hpp"
#include "obs/flight.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"
#include "schemes/baselines.hpp"
#include "sim/engine.hpp"

namespace dope::scenario {

std::string scheme_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNone: return "None";
    case SchemeKind::kCapping: return "Capping";
    case SchemeKind::kShaving: return "Shaving";
    case SchemeKind::kToken: return "Token";
    case SchemeKind::kAntiDope: return "Anti-DOPE";
  }
  return "?";
}

std::unique_ptr<cluster::ControlStage> make_scheme(
    SchemeKind kind, const antidope::AntiDopeConfig& antidope_config) {
  switch (kind) {
    case SchemeKind::kNone:
      return std::make_unique<schemes::NoScheme>();
    case SchemeKind::kCapping:
      return std::make_unique<schemes::CappingScheme>();
    case SchemeKind::kShaving:
      return std::make_unique<schemes::ShavingScheme>();
    case SchemeKind::kToken:
      return std::make_unique<schemes::TokenScheme>();
    case SchemeKind::kAntiDope:
      return std::make_unique<antidope::AntiDopeScheme>(antidope_config);
  }
  return nullptr;
}

namespace {

/// Observability setup for a run: the watchdog hysteresis
/// override (which must land before the default rules are installed)
/// and, when a FlightRecorder is attached, the run context and the
/// Anti-DOPE suspect classes stamped into incident bundles.
void configure_obs_run(const ScenarioConfig& config) {
  obs::Hub* hub = config.obs;
  if (hub == nullptr) return;
  if (config.alert_raise_windows > 0 || config.alert_clear_windows > 0) {
    hub->watchdog().set_default_hysteresis(config.alert_raise_windows,
                                           config.alert_clear_windows);
  }
  obs::FlightRecorder* flight = hub->flight();
  if (flight == nullptr) return;
  obs::FlightRunContext ctx;
  ctx.seed = config.seed;
  ctx.scheme = scheme_name(config.scheme);
  ctx.slot = config.slot;
  ctx.duration = config.duration;
  ctx.label = config.run_label;
  flight->set_run_context(std::move(ctx));
  if (config.scheme == SchemeKind::kAntiDope) {
    // Same list the scheme itself builds, so the bundle's attribution
    // cross-reference matches what the PDF stage actually isolated.
    const auto catalog = workload::Catalog::standard();
    const antidope::SuspectList list =
        config.antidope.suspect_list.has_value()
            ? *config.antidope.suspect_list
            : antidope::SuspectList::from_catalog(
                  catalog, config.antidope.suspect_power_threshold);
    std::vector<std::uint32_t> classes;
    for (std::size_t t = 0; t < list.size(); ++t) {
      if (list.suspicious(static_cast<workload::RequestTypeId>(t))) {
        classes.push_back(static_cast<std::uint32_t>(t));
      }
    }
    flight->set_suspect_classes(std::move(classes));
  }
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& config) {
  DOPE_REQUIRE(config.duration > 0, "scenario duration must be positive");
  DOPE_REQUIRE(config.num_zones >= 1, "scenario needs at least one zone");
  DOPE_REQUIRE(config.zone_weights.empty() ||
                   config.zone_weights.size() == config.num_zones,
               "zone_weights must be empty or match num_zones");
  DOPE_REQUIRE(config.attack_zone >= -1 &&
                   config.attack_zone < static_cast<int>(config.num_zones),
               "attack_zone outside the site");

  sim::Engine engine;
  engine.set_obs(config.obs);  // before any component construction
  if (config.obs != nullptr && config.trace_cap > 0) {
    config.obs->trace().set_max_events(config.trace_cap);
  }
  configure_obs_run(config);
  const auto catalog = workload::Catalog::standard();

  // A single cluster is the one-zone site (see site::SiteConfig).
  site::SiteConfig sc;
  sc.zones.resize(config.num_zones);
  for (std::size_t z = 0; z < config.num_zones; ++z) {
    cluster::ClusterConfig& zone = sc.zones[z].cluster;
    zone.num_servers = config.num_servers;
    zone.budget_level = config.budget;
    zone.battery_runtime = config.battery_runtime;
    zone.firewall = config.firewall;
    zone.breaker = config.breaker;
    zone.slot = config.slot;
    if (!config.zone_weights.empty()) {
      sc.zones[z].weight = config.zone_weights[z];
    }
  }
  // A positive override provisions the *facility*, not each zone.
  sc.facility_budget = config.budget_override;
  sc.divider = config.site_divider;
  sc.policy = config.glb_policy;
  sc.reapportion_period = config.reapportion_period;
  site::Site site(engine, catalog, std::move(sc));

  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    site.zone(z).install_scheme(make_scheme(config.scheme, config.antidope));
  }

  if (config.obs != nullptr && config.default_alert_rules) {
    auto& dog = config.obs->watchdog();
    for (std::size_t z = 0; z < site.num_zones(); ++z) {
      cluster::Cluster& zone = site.zone(z);
      const int id = zone.zone();
      const double share = site.zone_budgets()[z].value();
      dog.add_rule({.name = cluster::zone_name("budget-violated", id),
                    .signal = cluster::zone_name(
                        cluster::Cluster::kSignalSlotDemand, id),
                    .cmp = obs::AlertCmp::kAbove,
                    .threshold = share,
                    .consecutive = 5,
                    .clear_after = 5});
      dog.add_rule({.name = cluster::zone_name("utility-over-budget", id),
                    .signal = cluster::zone_name(
                        cluster::Cluster::kSignalUtility, id),
                    .cmp = obs::AlertCmp::kAbove,
                    .threshold = share,
                    .consecutive = 3,
                    .clear_after = 3});
      if (zone.battery() != nullptr) {
        dog.add_rule({.name = cluster::zone_name("battery-low", id),
                      .signal = cluster::zone_name(
                          cluster::Cluster::kSignalBatterySoc, id),
                      .cmp = obs::AlertCmp::kBelow,
                      .threshold = 0.25,
                      .consecutive = 1,
                      .clear_after = 3});
      }
    }
    if (config.attack_rps > 0.0) {
      // Fires while the observed flood runs at a meaningful fraction of
      // its configured rate; the raise/clear pair lands in the trace, so
      // attack onset is visible next to the power events it causes.
      dog.add_rule({.name = "attack-rate",
                    .signal = kSignalAttackRate,
                    .cmp = obs::AlertCmp::kAbove,
                    .threshold = 0.5 * config.attack_rps,
                    .consecutive = 3,
                    .clear_after = 3});
    }
  }

  // Scripted chaos: single-node power losses, with the global server
  // index split into (zone, server-in-zone). The guards make the pair
  // robust against a facility-wide breaker trip racing a scripted
  // recovery (whichever path powered the node first wins).
  for (const auto& outage : config.node_outages) {
    DOPE_REQUIRE(
        outage.server < config.num_servers * site.num_zones(),
        "node outage names a server outside the site");
    DOPE_REQUIRE(outage.at >= 0 && outage.down > 0,
                 "node outage needs a non-negative start and a positive "
                 "downtime");
    cluster::Cluster* cl = &site.zone(outage.server / config.num_servers);
    const std::size_t idx = outage.server % config.num_servers;
    engine.schedule_at(outage.at, [cl, idx] {
      cl->server(idx).power_off();
    });
    const Duration reboot = cl->config().reboot_time;
    engine.schedule_at(outage.at + outage.down, [cl, idx, reboot] {
      if (!cl->power().in_outage()) cl->server(idx).power_on(reboot);
    });
  }

  // Normal traffic enters through the site's edge (the global balancer
  // when there are several zones).
  std::unique_ptr<workload::TrafficGenerator> normal;
  if (config.normal_rps > 0.0 || !config.normal_rate_plan.empty()) {
    workload::GeneratorConfig gen;
    gen.name = "normal";
    gen.mixture = config.normal_mixture.value_or(
        workload::Mixture::alios_normal());
    gen.rate_rps = config.normal_rps;
    gen.num_sources = config.normal_sources;
    gen.source_base = 0;
    gen.seed = config.seed * 2 + 1;
    normal = std::make_unique<workload::TrafficGenerator>(
        engine, catalog, gen, site.edge_sink());
    if (!config.normal_rate_plan.empty()) {
      apply_rate_plan(engine, *normal, config.normal_rate_plan);
    }
  }

  // Attack traffic: through the edge, or concentrated on one zone's
  // regional front door.
  std::unique_ptr<workload::TrafficGenerator> attack;
  if (config.attack_rps > 0.0) {
    workload::GeneratorConfig gen;
    gen.name = "attack";
    gen.mixture = config.attack_mixture.value_or(
        workload::Mixture::single(workload::Catalog::kKMeans));
    gen.rate_rps = config.attack_rps;
    gen.num_sources = config.attack_agents;
    gen.source_base = 1'000'000;
    gen.start = config.attack_start;
    gen.stop = config.attack_stop;
    gen.ground_truth_attack = true;
    gen.seed = config.seed * 2 + 2;
    attack = std::make_unique<workload::TrafficGenerator>(
        engine, catalog, gen,
        config.attack_zone >= 0
            ? site.zone_sink(static_cast<std::size_t>(config.attack_zone))
            : site.edge_sink());
    if (!config.attack_rate_plan.empty()) {
      apply_rate_plan(engine, *attack, config.attack_rate_plan);
    }
  }

  // Probes: site-wide power, mean SoC over battery-backed zones,
  // per-zone throttling depth, and the watchdog's attack-rate feed.
  metrics::TimelineRecorder power_probe(
      engine, config.power_sample_interval, [&site] {
        Watts total{0.0};
        for (std::size_t z = 0; z < site.num_zones(); ++z) {
          total += site.zone(z).total_power();
        }
        return total.value();
      });
  bool any_battery = false;
  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    if (site.zone(z).battery() != nullptr) any_battery = true;
  }
  std::unique_ptr<metrics::TimelineRecorder> soc_probe;
  if (any_battery) {
    soc_probe = std::make_unique<metrics::TimelineRecorder>(
        engine, config.power_sample_interval, [&site] {
          double soc = 0.0;
          std::size_t n = 0;
          for (std::size_t z = 0; z < site.num_zones(); ++z) {
            if (const auto* b = site.zone(z).battery()) {
              soc += b->soc();
              ++n;
            }
          }
          return n == 0 ? 0.0 : soc / static_cast<double>(n);
        });
  }

  struct SlotProbe {
    std::size_t min_level_seen = 0;
    std::vector<std::size_t> zone_min_level;  // multi-zone runs only
    workload::TrafficGenerator* attack_gen = nullptr;
    obs::Watchdog* dog = nullptr;
    obs::Series* attack_series = nullptr;
    obs::FlightRecorder* flight = nullptr;
    Time dump_at = -1;
    bool dumped = false;
    double slot_seconds = 1.0;
    std::uint64_t prev_generated = 0;
  } probe;
  probe.min_level_seen = site.zone(0).ladder().max_level();
  if (site.num_zones() > 1) {
    probe.zone_min_level.assign(site.num_zones(), probe.min_level_seen);
  }
  if (config.obs != nullptr && attack != nullptr) {
    probe.attack_gen = attack.get();
    probe.dog = &config.obs->watchdog();
    probe.slot_seconds = to_seconds(config.slot);
    if (auto* ts = config.obs->timeseries()) {
      probe.attack_series = &ts->series(kSignalAttackRate);
    }
  }
  if (config.obs != nullptr && config.dump_incident_at >= 0) {
    probe.flight = config.obs->flight();
    probe.dump_at = config.dump_incident_at;
  }
  auto level_probe = engine.every(config.slot, [&site, &probe, &engine] {
    for (std::size_t z = 0; z < site.num_zones(); ++z) {
      cluster::Cluster& zone = site.zone(z);
      for (std::size_t i = 0; i < zone.num_servers(); ++i) {
        const std::size_t level = zone.server(i).level();
        probe.min_level_seen = std::min(probe.min_level_seen, level);
        if (!probe.zone_min_level.empty()) {
          probe.zone_min_level[z] = std::min(probe.zone_min_level[z], level);
        }
      }
    }
    if (probe.attack_gen != nullptr) {
      const std::uint64_t generated = probe.attack_gen->generated();
      const double rate =
          static_cast<double>(generated - probe.prev_generated) /
          probe.slot_seconds;
      probe.dog->observe(kSignalAttackRate, engine.now(), rate);
      if (probe.attack_series != nullptr) {
        probe.attack_series->sample(engine.now(), rate);
      }
      probe.prev_generated = generated;
    }
    if (probe.flight != nullptr && !probe.dumped &&
        engine.now() >= probe.dump_at) {
      probe.dumped = true;
      probe.flight->dump_now(engine.now(), "manual");
    }
  });

  engine.run_until(config.duration);
  level_probe.stop();

  // --- summarise ---
  ScenarioResult result;
  result.scheme = scheme_name(config.scheme);
  result.budget = site.facility_budget();

  const auto& metrics = site.request_metrics();
  const auto& latency = metrics.normal_latency_ms();
  result.mean_ms = latency.mean();
  result.p50_ms = latency.percentile(50);
  result.p90_ms = latency.percentile(90);
  result.p95_ms = latency.percentile(95);
  result.p99_ms = latency.percentile(99);
  result.min_ms = latency.min();
  result.max_ms = latency.max();
  result.availability = metrics.availability();
  result.drop_fraction = metrics.drop_fraction();
  result.normal_counts = metrics.normal_counts();
  result.attack_counts = metrics.attack_counts();
  result.attack_mean_ms = metrics.attack_latency_ms().mean();

  result.mean_power = Watts{power_probe.stats().mean()};
  result.peak_power = Watts{power_probe.stats().max()};
  result.power_timeline = power_probe.samples();
  Watts nameplate{0.0};
  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    nameplate += site.zone(z).power().total_nameplate();
  }
  result.power_samples_normalized.reserve(power_probe.samples().size());
  for (const auto& s : power_probe.samples()) {
    result.power_samples_normalized.push_back(Watts{s.value} / nameplate);
  }
  if (soc_probe) {
    result.battery_soc_timeline = soc_probe->samples();
  }

  result.energy = site.aggregate_energy();
  // The per-zone breakdown is for multi-zone runs only.
  const bool multi = site.num_zones() > 1;
  if (multi) result.zones.reserve(site.num_zones());
  GHz freq_sum{0.0};
  std::size_t total_servers = 0;
  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    cluster::Cluster& zone = site.zone(z);
    if (zone.battery() != nullptr) {
      result.battery_discharged += zone.battery()->total_discharged();
    }
    const auto& stats = zone.slot_stats();
    result.slot_stats.slots =
        std::max(result.slot_stats.slots, stats.slots);
    result.slot_stats.violation_slots += stats.violation_slots;
    result.slot_stats.utility_violation_slots +=
        stats.utility_violation_slots;
    result.slot_stats.worst_overshoot = std::max(
        result.slot_stats.worst_overshoot, stats.worst_overshoot);
    result.slot_stats.outages += stats.outages;
    result.slot_stats.downtime += stats.downtime;

    GHz zone_freq{0.0};
    for (std::size_t i = 0; i < zone.num_servers(); ++i) {
      zone_freq += zone.ladder().frequency(zone.server(i).level());
    }
    if (multi) {
      ZoneBreakdown breakdown;
      breakdown.budget = site.zone_budgets()[z];
      breakdown.availability = zone.request_metrics().availability();
      breakdown.normal_counts = zone.request_metrics().normal_counts();
      breakdown.violation_slots = stats.violation_slots;
      breakdown.min_level_seen = probe.zone_min_level[z];
      breakdown.load_energy = zone.energy_account().load_total();
      breakdown.final_mean_frequency =
          zone_freq / static_cast<double>(zone.num_servers());
      result.zones.push_back(breakdown);
    }
    freq_sum += zone_freq;
    total_servers += zone.num_servers();
  }
  result.final_mean_frequency =
      freq_sum / static_cast<double>(total_servers);
  result.min_level_seen = probe.min_level_seen;
  return result;
}

std::vector<ScenarioResult> run_scenarios(
    const std::vector<ScenarioConfig>& configs, std::size_t threads) {
  std::vector<ScenarioResult> results(configs.size());
  parallel_for(
      configs.size(),
      [&](std::size_t i) { results[i] = run_scenario(configs[i]); },
      threads);
  return results;
}

void write_results_csv(std::ostream& out,
                       const std::vector<ScenarioResult>& results) {
  CsvWriter writer(out);
  writer.write_row({"scheme", "budget_w", "mean_ms", "p50_ms", "p90_ms",
                    "p95_ms", "p99_ms", "availability", "drop_fraction",
                    "mean_power_w", "peak_power_w", "utility_j",
                    "battery_j", "violation_slots", "outages"});
  for (const auto& r : results) {
    writer.row(r.scheme, r.budget.value(), r.mean_ms, r.p50_ms, r.p90_ms,
               r.p95_ms, r.p99_ms, r.availability, r.drop_fraction,
               r.mean_power.value(), r.peak_power.value(),
               r.energy.utility_total().value(), r.energy.battery.value(),
               r.slot_stats.violation_slots, r.slot_stats.outages);
  }
}

void write_timeline_csv(std::ostream& out,
                        const std::vector<metrics::Sample>& samples) {
  CsvWriter writer(out);
  writer.write_row({"time_s", "value"});
  for (const auto& s : samples) {
    writer.row(to_seconds(s.t), s.value);
  }
}

}  // namespace dope::scenario
