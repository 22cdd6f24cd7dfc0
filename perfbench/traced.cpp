#include "traced.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "antidope/suspect_list.hpp"
#include "cluster/cluster.hpp"
#include "metrics/timeline.hpp"
#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace sc = dope::scenario;
using dope::Duration;
using dope::Time;

namespace {

void require_mirrored(const sc::ScenarioConfig& c) {
  const bool unsupported =
      !c.normal_rate_plan.empty() || !c.attack_rate_plan.empty() ||
      !c.node_outages.empty() || c.dump_incident_at >= 0 ||
      c.alert_raise_windows > 0 || c.alert_clear_windows > 0 ||
      c.trace_cap > 0 || (c.num_zones > 1 && c.obs != nullptr);
  if (unsupported) {
    throw std::invalid_argument(
        "traced run: scenario uses a feature the replay does not mirror");
  }
}

/// The generator-facing sink the benchmark owns: forwards each request
/// to the layer's own sink and records the call's host time.
struct TimedSink {
  dope::workload::RequestSink inner;
  dope::Histogram* per_sink;  // edge or zone histogram; may be null
  LayerStats* stats;

  void call(dope::workload::Request&& request) {
    const Clock::time_point t0 = Clock::now();
    inner(std::move(request));
    const std::int64_t dt = ns_since(t0);
    stats->ingest.add(static_cast<double>(dt));
    if (per_sink != nullptr) per_sink->add(static_cast<double>(dt));
    stats->ingest_ns += dt;
  }

  dope::workload::RequestSink sink() {
    return [this](dope::workload::Request&& r) { call(std::move(r)); };
  }
};

/// The two traffic populations exactly as `run_scenario` configures
/// them (same names, source ranges and seed derivation).
dope::workload::GeneratorConfig normal_generator(const sc::ScenarioConfig& c) {
  dope::workload::GeneratorConfig gen;
  gen.name = "normal";
  gen.mixture =
      c.normal_mixture.value_or(dope::workload::Mixture::alios_normal());
  gen.rate_rps = c.normal_rps;
  gen.num_sources = c.normal_sources;
  gen.source_base = 0;
  gen.seed = c.seed * 2 + 1;
  return gen;
}

dope::workload::GeneratorConfig attack_generator(const sc::ScenarioConfig& c) {
  dope::workload::GeneratorConfig gen;
  gen.name = "attack";
  gen.mixture = c.attack_mixture.value_or(
      dope::workload::Mixture::single(dope::workload::Catalog::kKMeans));
  gen.rate_rps = c.attack_rps;
  gen.num_sources = c.attack_agents;
  gen.source_base = 1'000'000;
  gen.start = c.attack_start;
  gen.stop = c.attack_stop;
  gen.ground_truth_attack = true;
  gen.seed = c.seed * 2 + 2;
  return gen;
}

dope::cluster::ClusterConfig cluster_config(const sc::ScenarioConfig& c) {
  dope::cluster::ClusterConfig cc;
  cc.num_servers = c.num_servers;
  cc.budget_level = c.budget;
  cc.budget_override = c.budget_override;
  cc.battery_runtime = c.battery_runtime;
  cc.firewall = c.firewall;
  cc.breaker = c.breaker;
  cc.slot = c.slot;
  return cc;
}

/// Flight-recorder run context and Anti-DOPE suspect classes, as the
/// scenario runner stamps them before it builds the cluster.
void configure_hub(const sc::ScenarioConfig& c,
                   const dope::workload::Catalog& catalog) {
  dope::obs::Hub* hub = c.obs;
  if (dope::obs::FlightRecorder* flight = hub->flight()) {
    dope::obs::FlightRunContext ctx;
    ctx.seed = c.seed;
    ctx.scheme = sc::scheme_name(c.scheme);
    ctx.slot = c.slot;
    ctx.duration = c.duration;
    ctx.label = c.run_label;
    flight->set_run_context(std::move(ctx));
    if (c.scheme == sc::SchemeKind::kAntiDope) {
      const auto list = c.antidope.suspect_list.has_value()
                            ? *c.antidope.suspect_list
                            : dope::antidope::SuspectList::from_catalog(
                                  catalog, c.antidope.suspect_power_threshold);
      std::vector<std::uint32_t> classes;
      for (std::size_t t = 0; t < list.size(); ++t) {
        if (list.suspicious(static_cast<dope::workload::RequestTypeId>(t))) {
          classes.push_back(static_cast<std::uint32_t>(t));
        }
      }
      flight->set_suspect_classes(std::move(classes));
    }
  }
}

/// The watchdog's default rules for a single cluster.
void install_default_rules(const sc::ScenarioConfig& c,
                           dope::cluster::Cluster& cl) {
  using dope::cluster::Cluster;
  auto& dog = c.obs->watchdog();
  const double budget = cl.budget().value();
  dog.add_rule({.name = "budget-violated",
                .signal = Cluster::kSignalSlotDemand,
                .cmp = dope::obs::AlertCmp::kAbove,
                .threshold = budget,
                .consecutive = 5,
                .clear_after = 5});
  dog.add_rule({.name = "utility-over-budget",
                .signal = Cluster::kSignalUtility,
                .cmp = dope::obs::AlertCmp::kAbove,
                .threshold = budget,
                .consecutive = 3,
                .clear_after = 3});
  if (cl.battery() != nullptr) {
    dog.add_rule({.name = "battery-low",
                  .signal = Cluster::kSignalBatterySoc,
                  .cmp = dope::obs::AlertCmp::kBelow,
                  .threshold = 0.25,
                  .consecutive = 1,
                  .clear_after = 3});
  }
  if (c.attack_rps > 0.0) {
    dog.add_rule({.name = "attack-rate",
                  .signal = sc::kSignalAttackRate,
                  .cmp = dope::obs::AlertCmp::kAbove,
                  .threshold = 0.5 * c.attack_rps,
                  .consecutive = 3,
                  .clear_after = 3});
  }
}

/// How often each firewall polls its source counters; 0 without one.
Duration firewall_interval(const sc::ScenarioConfig& c) {
  return c.firewall ? c.firewall->check_interval : 0;
}

/// Advances `engine` to `duration` one management slot at a time: the
/// window up to one microsecond before each boundary, then the boundary
/// instant alone (the slot task, the probes and, when they are due, the
/// site's budget reapportion and the firewalls' polls; a period of 0
/// means never). `at_boundary()` runs between windows, outside the timed
/// intervals.
template <typename AtBoundary>
void drive(dope::sim::Engine& engine, Duration slot, Duration duration,
           Duration reapportion_period, Duration firewall_interval,
           SpanLog& log, std::uint64_t parent, LayerStats& stats,
           AtBoundary&& at_boundary) {
  for (Time b = slot;; b += slot) {
    const Time boundary = std::min(b, duration);
    const Clock::time_point t0 = Clock::now();
    engine.run_until(boundary - 1);
    const Clock::time_point t1 = Clock::now();
    const std::int64_t ingest_before = stats.ingest_ns;
    engine.run_until(boundary);
    const Clock::time_point t2 = Clock::now();
    stats.ingest_in_slot_ns += stats.ingest_ns - ingest_before;
    log.add("window", parent, t0, t1);
    log.add("slot", parent, t1, t2);
    const std::int64_t slot_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count();
    stats.simulate_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t0).count();
    stats.slot_ns += slot_ns;
    const double slot_us = static_cast<double>(slot_ns) * 1e-3;
    stats.slot_us.add(slot_us);
    if (reapportion_period > 0 || firewall_interval > 0) {
      const bool reapportion =
          reapportion_period > 0 && boundary % reapportion_period == 0;
      const bool poll =
          firewall_interval > 0 && boundary % firewall_interval == 0;
      if (reapportion && !poll) stats.slot_us_reapportion.add(slot_us);
      if (poll && !reapportion) stats.slot_us_firewall.add(slot_us);
      if (!reapportion && !poll) stats.slot_us_plain.add(slot_us);
    }
    stats.pending.add(static_cast<double>(engine.pending()));
    at_boundary();
    if (boundary >= duration) break;
  }
}

void add_counters(LayerStats& stats, dope::cluster::Cluster& cl) {
  for (const auto* n : cl.servers()) {
    stats.servers.completed += n->counters().completed;
    stats.servers.rejected_queue_full += n->counters().rejected_queue_full;
    stats.servers.timed_out += n->counters().timed_out;
  }
}

void fill_outcomes(sc::ScenarioResult& r,
                  const dope::metrics::RequestMetrics& m) {
  r.p99_ms = m.normal_latency_ms().percentile(99);
  r.normal_counts = m.normal_counts();
  r.attack_counts = m.attack_counts();
}

sc::ScenarioResult traced_cluster(const sc::ScenarioConfig& config,
                                  SpanLog& log, std::uint64_t parent,
                                  LayerStats& stats) {
  const std::uint64_t setup_span = log.begin("setup", parent);
  dope::sim::Engine engine;
  engine.set_obs(config.obs);  // before any component construction
  const auto catalog = dope::workload::Catalog::standard();
  if (config.obs != nullptr) configure_hub(config, catalog);
  dope::cluster::Cluster cluster(engine, catalog, cluster_config(config));
  cluster.install_scheme(sc::make_scheme(config.scheme, config.antidope));
  if (config.obs != nullptr && config.default_alert_rules) {
    install_default_rules(config, cluster);
  }

  TimedSink edge{cluster.edge_sink(), nullptr, &stats};
  std::unique_ptr<dope::workload::TrafficGenerator> normal;
  if (config.normal_rps > 0.0) {
    normal = std::make_unique<dope::workload::TrafficGenerator>(
        engine, catalog, normal_generator(config), edge.sink());
  }
  std::unique_ptr<dope::workload::TrafficGenerator> attack;
  if (config.attack_rps > 0.0) {
    attack = std::make_unique<dope::workload::TrafficGenerator>(
        engine, catalog, attack_generator(config), edge.sink());
  }

  // The scenario's probes, registered in the scenario's order: the
  // engine breaks same-instant ties by registration order.
  dope::metrics::TimelineRecorder power_probe(
      engine, config.power_sample_interval,
      [&cluster] { return cluster.total_power().value(); });
  std::unique_ptr<dope::metrics::TimelineRecorder> soc_probe;
  if (cluster.battery() != nullptr) {
    soc_probe = std::make_unique<dope::metrics::TimelineRecorder>(
        engine, config.power_sample_interval,
        [&cluster] { return cluster.battery()->soc(); });
  }
  struct SlotProbe {
    std::size_t min_level_seen = 0;
    dope::workload::TrafficGenerator* attack_gen = nullptr;
    dope::obs::Watchdog* dog = nullptr;
    dope::obs::Series* attack_series = nullptr;
    double slot_seconds = 1.0;
    std::uint64_t prev_generated = 0;
  } probe;
  probe.min_level_seen = cluster.ladder().max_level();
  if (config.obs != nullptr && attack != nullptr) {
    probe.attack_gen = attack.get();
    probe.dog = &config.obs->watchdog();
    probe.slot_seconds = dope::to_seconds(config.slot);
    if (auto* ts = config.obs->timeseries()) {
      probe.attack_series = &ts->series(sc::kSignalAttackRate);
    }
  }
  auto level_probe = engine.every(config.slot, [&cluster, &probe, &engine] {
    for (auto* n : cluster.servers()) {
      probe.min_level_seen = std::min(probe.min_level_seen, n->level());
    }
    if (probe.attack_gen != nullptr) {
      const std::uint64_t generated = probe.attack_gen->generated();
      const double rate =
          static_cast<double>(generated - probe.prev_generated) /
          probe.slot_seconds;
      probe.dog->observe(sc::kSignalAttackRate, engine.now(), rate);
      if (probe.attack_series != nullptr) {
        probe.attack_series->sample(engine.now(), rate);
      }
      probe.prev_generated = generated;
    }
  });
  log.end(setup_span);

  {
    ScopedSpan simulate(log, "simulate", parent);
    drive(engine, config.slot, config.duration, 0, firewall_interval(config),
          log, simulate.id(), stats, [&] {
            for (auto* n : cluster.servers()) {
              stats.queue_len_max =
                  std::max(stats.queue_len_max, n->queue_length());
            }
          });
  }
  level_probe.stop();

  ScopedSpan summarize(log, "summarize", parent);
  sc::ScenarioResult result;
  fill_outcomes(result, cluster.request_metrics());
  result.energy = cluster.energy_account();
  result.slot_stats = cluster.slot_stats();
  result.min_level_seen = probe.min_level_seen;
  stats.events += engine.executed();
  stats.event_pool_slots =
      std::max(stats.event_pool_slots, engine.event_pool_size());
  stats.arrivals += (normal ? normal->generated() : 0) +
                    (attack ? attack->generated() : 0);
  add_counters(stats, cluster);
  return result;
}

sc::ScenarioResult traced_site(const sc::ScenarioConfig& config,
                               SpanLog& log, std::uint64_t parent,
                               LayerStats& stats) {
  const std::uint64_t setup_span = log.begin("setup", parent);
  dope::sim::Engine engine;
  const auto catalog = dope::workload::Catalog::standard();
  dope::site::SiteConfig site_config;
  for (std::size_t z = 0; z < config.num_zones; ++z) {
    dope::site::ZoneConfig zone;
    zone.cluster = cluster_config(config);
    zone.cluster.budget_override = dope::Watts{0.0};
    if (!config.zone_weights.empty()) zone.weight = config.zone_weights[z];
    site_config.zones.push_back(std::move(zone));
  }
  site_config.facility_budget = config.budget_override;
  site_config.divider = config.site_divider;
  site_config.policy = config.glb_policy;
  site_config.reapportion_period = config.reapportion_period;
  dope::site::Site site(engine, catalog, site_config);
  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    site.zone(z).install_scheme(
        sc::make_scheme(config.scheme, config.antidope));
  }

  TimedSink edge{site.edge_sink(), &stats.ingest_edge, &stats};
  std::unique_ptr<TimedSink> pinned;
  if (config.attack_zone >= 0) {
    pinned = std::make_unique<TimedSink>(TimedSink{
        site.zone_sink(static_cast<std::size_t>(config.attack_zone)),
        &stats.ingest_zone, &stats});
  }
  std::unique_ptr<dope::workload::TrafficGenerator> normal;
  if (config.normal_rps > 0.0) {
    normal = std::make_unique<dope::workload::TrafficGenerator>(
        engine, catalog, normal_generator(config), edge.sink());
  }
  std::unique_ptr<dope::workload::TrafficGenerator> attack;
  if (config.attack_rps > 0.0) {
    attack = std::make_unique<dope::workload::TrafficGenerator>(
        engine, catalog, attack_generator(config),
        pinned ? pinned->sink() : edge.sink());
  }

  dope::metrics::TimelineRecorder power_probe(
      engine, config.power_sample_interval, [&site] {
        dope::Watts total{0.0};
        for (std::size_t z = 0; z < site.num_zones(); ++z) {
          total += site.zone(z).total_power();
        }
        return total.value();
      });
  bool any_battery = false;
  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    if (site.zone(z).battery() != nullptr) any_battery = true;
  }
  std::unique_ptr<dope::metrics::TimelineRecorder> soc_probe;
  if (any_battery) {
    soc_probe = std::make_unique<dope::metrics::TimelineRecorder>(
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
  std::vector<std::size_t> min_level(site.num_zones(),
                                     site.zone(0).ladder().max_level());
  auto level_probe = engine.every(config.slot, [&site, &min_level] {
    for (std::size_t z = 0; z < site.num_zones(); ++z) {
      for (auto* n : site.zone(z).servers()) {
        min_level[z] = std::min(min_level[z], n->level());
      }
    }
  });
  log.end(setup_span);

  {
    ScopedSpan simulate(log, "simulate", parent);
    drive(engine, config.slot, config.duration, config.reapportion_period,
          firewall_interval(config), log, simulate.id(), stats, [&] {
            for (std::size_t z = 0; z < site.num_zones(); ++z) {
              for (auto* n : site.zone(z).servers()) {
                stats.queue_len_max =
                    std::max(stats.queue_len_max, n->queue_length());
              }
            }
          });
  }
  level_probe.stop();

  ScopedSpan summarize(log, "summarize", parent);
  sc::ScenarioResult result;
  fill_outcomes(result, site.request_metrics());
  result.energy = site.aggregate_energy();
  result.min_level_seen = site.zone(0).ladder().max_level();
  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    result.slot_stats.violation_slots +=
        site.zone(z).slot_stats().violation_slots;
    result.min_level_seen = std::min(result.min_level_seen, min_level[z]);
    add_counters(stats, site.zone(z));
  }
  stats.events += engine.executed();
  stats.event_pool_slots =
      std::max(stats.event_pool_slots, engine.event_pool_size());
  stats.arrivals += (normal ? normal->generated() : 0) +
                    (attack ? attack->generated() : 0);
  stats.reapportions += site.reapportion_count();
  return result;
}

}  // namespace

sc::ScenarioResult traced_scenario(const sc::ScenarioConfig& config,
                                   SpanLog& log, std::uint64_t parent,
                                   LayerStats& stats) {
  require_mirrored(config);
  return config.num_zones > 1 ? traced_site(config, log, parent, stats)
                              : traced_cluster(config, log, parent, stats);
}

}  // namespace perfbench
