// Turn-key experiment scenarios.
//
// Every evaluation in the paper is an instance of the same template: a
// power-constrained cluster, background (trace-shaped) normal traffic, an
// optional attack, one power-management scheme, and a 10-minute
// observation window. `run_scenario` assembles exactly that and returns
// the metrics the paper's tables and figures report, so bench binaries and
// integration tests stay declarative.
#pragma once

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

/// Instantiates a scheme (Anti-DOPE takes its own sub-config).
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
  /// `run_scenarios` executes entries concurrently, so never share a hub
  /// across configs in one batch. Instrumentation only observes — results
  /// are byte-identical with and without a hub.
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
  cluster::SlotStats slot_stats;

  // DVFS: mean applied frequency over servers at run end, and the
  // minimum level any server reached during the run.
  GHz final_mean_frequency{0.0};
  std::size_t min_level_seen = 0;

  /// Per-zone breakdown, in zone order, for runs with two or more zones;
  /// empty with one zone, whose numbers are the ones above.
  std::vector<ZoneBreakdown> zones;
};

/// Builds, runs, and summarises one scenario.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Runs one scenario per entry, in parallel when hardware allows.
/// `threads == 0` selects the hardware concurrency. Results are always
/// in `configs` order. (For grids over named axes with per-run failure
/// capture, prefer `sweep::SweepRunner`.)
std::vector<ScenarioResult> run_scenarios(
    const std::vector<ScenarioConfig>& configs, std::size_t threads = 0);

/// Writes a CSV summary (one row per result) for external plotting:
/// scheme, budget, latency stats, availability, power, energy columns.
void write_results_csv(std::ostream& out,
                       const std::vector<ScenarioResult>& results);

/// Writes a (time_s, value) CSV of a sampled timeline.
void write_timeline_csv(std::ostream& out,
                        const std::vector<metrics::Sample>& samples);

}  // namespace dope::scenario
