// Turn-key experiment scenarios.
//
// Every evaluation in the paper is an instance of the same template: a
// power-constrained cluster, background (trace-shaped) normal traffic, an
// optional attack, one power-management scheme, and a 10-minute
// observation window. `run_scenario` assembles exactly that and returns
// the metrics the paper's tables and figures report, so bench binaries and
// integration tests stay declarative. A figure that needs more than the
// config says (its own stage, a phased attack, an adaptive attacker)
// builds the same assembly as an open `Run` and adds to it.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "antidope/antidope.hpp"
#include "cluster/cluster.hpp"
#include "common/stats.hpp"
#include "metrics/energy.hpp"
#include "metrics/request_metrics.hpp"
#include "metrics/timeline.hpp"
#include "net/firewall.hpp"
#include "power/provisioning.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"

namespace dope::scenario {

/// The four evaluated schemes (Table 2) plus the uncapped reference.
enum class SchemeKind { kNone, kCapping, kShaving, kToken, kAntiDope };

inline constexpr SchemeKind kEvaluatedSchemes[] = {
    SchemeKind::kCapping, SchemeKind::kShaving, SchemeKind::kToken,
    SchemeKind::kAntiDope};

std::string scheme_name(SchemeKind kind);

/// Instantiates a scheme (Anti-DOPE takes its own sub-config); nullptr
/// for `kNone`, which installs no control stage.
std::unique_ptr<cluster::ControlStage> make_scheme(
    SchemeKind kind, const antidope::AntiDopeConfig& antidope_config = {});

/// One scripted chaos event: server `server` suffers a hard power loss
/// at `at` (in-flight and queued work is lost, recorded as outage
/// failures) and begins its reboot `down` later. Used by resilience
/// studies and the fuzzer's mid-run fault injection.
struct NodeOutage {
  std::size_t server = 0;
  Time at = 0;
  Duration down = 10 * kSecond;
};

/// Full scenario description.
struct ScenarioConfig {
  // --- cluster ---
  std::size_t num_servers = 8;
  power::BudgetLevel budget = power::BudgetLevel::kNormal;
  /// Explicit budget watts; overrides `budget` when positive.
  Watts budget_override{0.0};
  Duration battery_runtime = 2 * kMinute;
  std::optional<net::FirewallConfig> firewall;
  /// Branch-circuit breaker on the utility feed; disabled when nullopt.
  std::optional<power::BreakerSpec> breaker;
  Duration slot = 1 * kSecond;

  // --- scheme ---
  SchemeKind scheme = SchemeKind::kNone;
  antidope::AntiDopeConfig antidope{};

  // --- normal traffic ---
  double normal_rps = 300.0;
  unsigned normal_sources = 256;
  /// Empty mixture selects the AliOS normal blend.
  std::optional<workload::Mixture> normal_mixture;
  /// Optional piecewise-constant modulation (trace replay).
  std::vector<workload::RateStep> normal_rate_plan;

  // --- attack traffic ---
  double attack_rps = 0.0;
  std::optional<workload::Mixture> attack_mixture;
  unsigned attack_agents = 64;
  Time attack_start = 0;
  Time attack_stop = -1;
  /// Optional scripted attack-rate schedule (pulsating attacks etc.).
  std::vector<workload::RateStep> attack_rate_plan;

  // --- chaos ---
  /// Scripted single-node outages injected mid-run. Each entry must name
  /// a valid server index; events on the same server must not overlap.
  /// In a multi-zone run the index is global across zones in zone order
  /// (zone = index / num_servers, server = index % num_servers).
  std::vector<NodeOutage> node_outages;

  // --- site (docs/SITE.md) ---
  /// Zone count. Every run stands up a `site::Site` of identical zones,
  /// each with `num_servers` servers, the cluster settings above, and its
  /// own copy of `scheme`. With 1 (the paper's single cluster) the site
  /// reduces to that cluster and the settings below have no effect;
  /// with >= 2 the zones sit behind the global load balancer.
  std::size_t num_zones = 1;
  /// Per-zone GLB/divider weights; empty means all 1.0. When non-empty
  /// the size must equal `num_zones`.
  std::vector<double> zone_weights;
  site::GlobalLbPolicy glb_policy = site::GlobalLbPolicy::kWeighted;
  /// How the facility budget (`budget_override` when positive, else the
  /// sum of the zones' level-derived budgets) is split across zones.
  site::DividerKind site_divider = site::DividerKind::kStatic;
  Duration reapportion_period = 5 * kSecond;
  /// When >= 0, attack traffic enters through this zone's regional
  /// front door instead of the global balancer — the zone-concentrated
  /// DOPE flood. Must lie in [-1, num_zones); with one zone, 0 and -1
  /// are the same front door.
  int attack_zone = -1;

  // --- run ---
  Duration duration = 10 * kMinute;  // the paper's observation window
  Duration power_sample_interval = 500 * kMillisecond;
  std::uint64_t seed = 1;

  // --- observability ---
  /// Optional metrics/trace/alert hub attached to the run's engine. The
  /// caller owns it and it must outlive the call. One hub per scenario:
  /// hubs are single-threaded, so concurrent runs (a sweep's workers)
  /// never share one. Instrumentation only observes — results are
  /// byte-identical with and without a hub.
  obs::Hub* obs = nullptr;
  /// Install the standard power-emergency watchdog rules (budget breach,
  /// utility feed over budget, battery below reserve, and — when the
  /// scenario has attack traffic — attack rate above half the configured
  /// flood rate) into `obs`'s watchdog before the run. Ignored when
  /// `obs` is null.
  bool default_alert_rules = false;
  /// Overrides the hub's trace retention cap for this run when positive
  /// (0 keeps whatever the hub was configured with). Dropped events are
  /// never silent: exports end with a TraceTruncated record.
  std::size_t trace_cap = 0;
  /// Watchdog hysteresis override applied to every rule installed after
  /// setup (the default rules above included): breach windows before a
  /// raise / calm windows before a clear. 0 keeps each rule's own
  /// values. (`--alert-hysteresis R:C` in dopesim_cli.)
  unsigned alert_raise_windows = 0;
  unsigned alert_clear_windows = 0;
  /// When >= 0 and `obs` has a FlightRecorder, forces one "manual"
  /// incident snapshot at the first management-slot boundary at or
  /// after this time (`--dump-incident-at`). Piggybacks on the slot
  /// probe, so it adds no engine events of its own.
  Time dump_incident_at = -1;
  /// Label stamped into incident bundles (sweep cell ids, fuzz case
  /// names); empty for plain runs.
  std::string run_label;
};

/// Watchdog signal carrying the offered attack rate (requests/second),
/// fed once per management slot by the scenario runner and on every epoch
/// by the adaptive `attack::DopeAttacker`.
inline constexpr const char* kSignalAttackRate = "attack.rate_rps";

/// Per-zone slice of a multi-zone run's results.
struct ZoneBreakdown {
  /// Final applied budget share (the divider moves these at runtime).
  Watts budget{0.0};
  double availability = 1.0;
  metrics::OutcomeCounts normal_counts;
  std::uint64_t violation_slots = 0;
  /// Deepest DVFS throttling any of the zone's servers reached.
  std::size_t min_level_seen = 0;
  GHz final_mean_frequency{0.0};
  /// Energy the zone's IT load consumed (utility + battery).
  Joules load_energy{0.0};
};

/// Everything the paper's figures report about one run.
struct ScenarioResult {
  std::string scheme;
  Watts budget{0.0};

  // Normal-user latency (completed requests, milliseconds).
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;

  double availability = 1.0;
  double drop_fraction = 0.0;
  metrics::OutcomeCounts normal_counts;
  metrics::OutcomeCounts attack_counts;
  double attack_mean_ms = 0.0;

  // Power.
  Watts mean_power{0.0};
  Watts peak_power{0.0};
  std::vector<metrics::Sample> power_timeline;
  /// Power distribution (normalised to aggregate nameplate) for CDFs.
  std::vector<double> power_samples_normalized;

  // Battery.
  std::vector<metrics::Sample> battery_soc_timeline;
  Joules battery_discharged{0.0};

  // Energy and enforcement.
  metrics::EnergyAccount energy;
  /// Summed over zones, so every count is in zone-slots (and downtime in
  /// zone-time): with N zones `slots` is N times each zone's own slot
  /// count, since all zones share `config.slot`. `worst_overshoot` is
  /// the maximum over zones.
  cluster::SlotStats slot_stats;

  // DVFS: mean applied frequency over servers at run end, and the
  // minimum level any server reached during the run.
  GHz final_mean_frequency{0.0};
  std::size_t min_level_seen = 0;

  /// Per-zone breakdown, in zone order, for runs with two or more zones;
  /// empty with one zone, whose numbers are the ones above.
  std::vector<ZoneBreakdown> zones;
};

/// What a caller may set in a run's assembly beyond its config. Both are
/// empty on the `run_scenario` path.
struct RunHooks {
  /// Edits each zone's cluster settings before the site is built (an
  /// ingress switch, another default LB policy).
  std::function<void(cluster::ClusterConfig&)> zone{};
  /// Builds each zone's control stage in place of
  /// `make_scheme(config.scheme, config.antidope)` (a scheme outside
  /// `SchemeKind`, or one whose pointer the caller keeps).
  std::function<std::unique_ptr<cluster::ControlStage>()> stage{};
};

/// One scenario, built and left open. The constructor assembles the
/// engine, the site with each zone's stage, the alert rules, the scripted
/// outages, the normal and attack generators and the probes, in that
/// order. Before and between `run_until` calls the caller may attach more
/// to `engine()` and `site()` — extra generators, an adaptive attacker,
/// an auto-scaler, scheduled events, its own probes — which must not
/// outlive the Run.
class Run {
 public:
  explicit Run(const ScenarioConfig& config, RunHooks hooks = {});

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  sim::Engine& engine() { return engine_; }
  const workload::Catalog& catalog() const { return catalog_; }
  site::Site& site() { return *site_; }
  /// The attack generator; null when the scenario has no attack traffic.
  workload::TrafficGenerator* attack() {
    return attack_ ? &*attack_ : nullptr;
  }

  /// Advances the run to `t`; may be called again to continue it. Throws
  /// std::invalid_argument when `t` lies before the current time.
  void run_until(Time t) { engine_.run_until(t); }

  /// The figures' metrics for the run so far.
  ScenarioResult summary();

 private:
  /// Per-slot probe: throttling depth, the watchdog's attack-rate feed,
  /// and the forced incident dump.
  struct SlotProbe {
    std::size_t min_level_seen = 0;
    std::vector<std::size_t> zone_min_level;  // multi-zone runs only
    /// Set when a hub watches a run with attack traffic.
    obs::Watchdog* dog = nullptr;
    obs::Series* attack_series = nullptr;
    obs::FlightRecorder* flight = nullptr;
    Time dump_at = -1;
    bool dumped = false;
    double slot_seconds = 1.0;
    std::uint64_t prev_generated = 0;
  };

  void on_slot();

  SchemeKind scheme_;
  sim::Engine engine_;
  workload::Catalog catalog_;
  std::optional<site::Site> site_;
  std::optional<workload::TrafficGenerator> normal_;
  std::optional<workload::TrafficGenerator> attack_;
  std::optional<metrics::TimelineRecorder> power_probe_;
  std::optional<metrics::TimelineRecorder> soc_probe_;
  SlotProbe probe_;
  sim::PeriodicHandle level_probe_;
};

/// Builds, runs, and summarises one scenario.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Runs `config` with a private incident-capture hub — spans, per-slot
/// series, the flight recorder and the default alert rules, with
/// `label` as the run label — and stores the flight recorder's bundle
/// (a dope_incident_bundle JSON document) in `bundle`. Any hub on
/// `config` is replaced; the result is the one `run_scenario` returns.
ScenarioResult run_capturing_incidents(ScenarioConfig config,
                                       const std::string& label,
                                       std::string& bundle);

/// Writes a CSV summary (one row per result) for external plotting:
/// scheme, budget, latency stats, availability, power, energy columns.
void write_results_csv(std::ostream& out,
                       const std::vector<ScenarioResult>& results);

/// Writes a (time_s, value) CSV of a sampled timeline.
void write_timeline_csv(std::ostream& out,
                        const std::vector<metrics::Sample>& samples);

}  // namespace dope::scenario
