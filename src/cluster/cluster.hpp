// Cluster assembly: three composable planes wired onto one simulation
// engine.
//
//   data plane     (cluster/data_plane.hpp)   switch -> firewall -> LB ->
//                                             server pool; the request path
//   power plane    (cluster/power_plane.hpp)  provisioning, breaker,
//                                             battery, energy accounting
//   control plane  (cluster/control_plane.hpp) ordered pipeline of
//                                             ControlStages (schemes,
//                                             autoscaler, health checks)
//
// The Cluster itself is the composition root: it owns the three planes,
// the request metrics, and the management-slot periodic that drives
// `power.run_slot` followed by `control.on_slot`. Schemes and tests reach
// the planes through `data()` / `power()` / `control()`. The few
// delegating accessors left (`servers()`, `budget()`, `battery()`,
// `total_power()`, ...) are the ones perfbench/traced.cpp calls; removing
// them waits for a benchmark change that migrates that file.
//
// Inside a multi-zone `site::Site` each zone is one Cluster with
// `config.zone >= 0`; zone-labelled metrics, trace fields, and watchdog
// signal suffixes (`zone_name`) are emitted only then, so a standalone or
// one-zone cluster's exports are byte-identical to the pre-plane layout.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "battery/battery.hpp"
#include "cluster/control_plane.hpp"
#include "cluster/data_plane.hpp"
#include "cluster/power_plane.hpp"
#include "cluster/stage.hpp"
#include "common/units.hpp"
#include "metrics/energy.hpp"
#include "metrics/request_metrics.hpp"
#include "net/firewall.hpp"
#include "net/load_balancer.hpp"
#include "net/switch.hpp"
#include "obs/hub.hpp"
#include "power/breaker.hpp"
#include "power/provisioning.hpp"
#include "server/node.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"

namespace dope::cluster {

/// Everything needed to stand up a cluster.
struct ClusterConfig {
  /// Leaf-node count (the paper's mini rack has 4; evaluation scales up).
  std::size_t num_servers = 8;
  power::ServerPowerSpec server_spec{};
  server::ServerConfig server_config{};
  /// DVFS operating points shared by every node.
  power::DvfsLadder ladder = power::DvfsLadder::make();
  /// Facility supply as a fraction of aggregate nameplate.
  power::BudgetLevel budget_level = power::BudgetLevel::kNormal;
  /// Explicit supply in watts; overrides `budget_level` when positive
  /// (used for "aggressively power-insufficient" scenarios like Fig. 7).
  Watts budget_override{0.0};
  /// Power-manager decision interval.
  Duration slot = 1 * kSecond;
  /// Battery sized to sustain the full cluster for this long; 0 = none.
  Duration battery_runtime = 0;
  /// Fraction of battery capacity reserved for outage ride-through;
  /// peak shaving never discharges below it.
  double battery_reserve_fraction = 0.0;
  /// Ingress switch capacity; disabled (infinite wire) when nullopt.
  std::optional<net::SwitchConfig> network_switch;
  /// Perimeter firewall; disabled when nullopt.
  std::optional<net::FirewallConfig> firewall;
  /// Branch-circuit breaker protecting the utility feed; when the feed's
  /// draw trips it, the whole cluster suffers an unplanned outage.
  std::optional<power::BreakerSpec> breaker;
  /// How long the facility stays dark after a trip before the breaker is
  /// reset and servers begin rebooting.
  Duration outage_recovery = 30 * kSecond;
  /// Per-server reboot time after power returns.
  Duration reboot_time = 10 * kSecond;
  /// Default NLB policy when no control stage routes.
  net::LbPolicy lb_policy = net::LbPolicy::kLeastLoaded;
  /// Zone index inside a `site::Site`; -1 for a standalone cluster.
  /// When >= 0 every metric, trace event, span, and watchdog signal the
  /// cluster emits carries the zone.
  int zone = -1;
};

/// Stable label for a terminal outcome (metrics label / trace payload).
const char* outcome_label(workload::RequestOutcome outcome);

/// Per-zone name of a watchdog signal, time series or alert rule: `base`
/// as-is for a standalone cluster (`zone < 0`), else ".zone<N>"-suffixed
/// ("cluster.slot_demand_w.zone2") so zones sharing one hub stay distinct.
std::string zone_name(const char* base, int zone);

/// A power-constrained server cluster under test.
class Cluster {
 public:
  Cluster(sim::Engine& engine, const workload::Catalog& catalog,
          ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- planes ---
  DataPlane& data() { return data_; }
  const DataPlane& data() const { return data_; }
  PowerPlane& power() { return power_; }
  const PowerPlane& power() const { return power_; }
  ControlPlane& control() { return control_; }
  const ControlPlane& control() const { return control_; }

  /// Installs `scheme` as the *only* control stage (replacing any
  /// existing stack). Equivalent to `control().install(...)`.
  void install_scheme(std::unique_ptr<ControlStage> scheme);

  // --- request path ---
  /// Edge entry point for generated traffic.
  void ingest(workload::Request&& request) {
    data_.ingest(std::move(request));
  }
  /// Sink adapter for TrafficGenerator (cluster must outlive it).
  workload::RequestSink edge_sink();

  // --- topology / control surface (for schemes and tests) ---
  sim::Engine& engine() { return engine_; }
  const workload::Catalog& catalog() const { return catalog_; }
  const ClusterConfig& config() const { return config_; }
  const power::DvfsLadder& ladder() const { return config_.ladder; }
  /// Zone index inside a Site; -1 standalone.
  int zone() const { return config_.zone; }
  std::vector<server::ServerNode*> servers() { return data_.servers(); }
  server::ServerNode& server(std::size_t i) { return data_.server(i); }
  std::size_t num_servers() const { return data_.num_servers(); }

  /// Facility power budget (watts).
  Watts budget() const { return power_.budget(); }
  /// Instantaneous aggregate power right now.
  Watts total_power() const { return data_.total_power(); }
  battery::Battery* battery() { return power_.battery(); }

  // --- metrics ---
  metrics::RequestMetrics& request_metrics() { return request_metrics_; }
  const metrics::EnergyAccount& energy_account() const {
    return power_.energy_account();
  }
  const SlotStats& slot_stats() const { return power_.slot_stats(); }

  /// Registers an extra observer of terminal request records (e.g. the
  /// adaptive attacker's feedback probe).
  void add_record_listener(workload::RecordSink listener);

  /// Terminal-record sink: closes the root span, bumps outcome counters,
  /// folds the record into the metrics, and fans out to listeners. The
  /// data plane and server nodes call this; it is public so a Site's
  /// per-zone sinks can chain through it.
  void on_record(const workload::RequestRecord& record);

  /// Convenience: advances the shared engine by `d`.
  void run_for(Duration d);

  /// Signal names the cluster feeds to an attached watchdog, one sample
  /// per management slot (see docs/OBSERVABILITY.md). Inside a multi-zone
  /// Site each zone suffixes these with ".zone<N>" (`zone_name`).
  static constexpr const char* kSignalSlotDemand = "cluster.slot_demand_w";
  static constexpr const char* kSignalUtility = "cluster.utility_w";
  static constexpr const char* kSignalBatterySoc = "battery.soc";
  static constexpr const char* kSignalBreakerHeat = "breaker.heat";

 private:
  /// Config-validation gate; throws std::invalid_argument before any
  /// plane is built (num_servers == 0, non-positive slot, ...).
  static void validate(const ClusterConfig& config);
  void management_slot();
  void bind_obs();

  sim::Engine& engine_;
  const workload::Catalog& catalog_;
  ClusterConfig config_;

  // Plane construction order is load-bearing: the data plane builds the
  // fleet and edge first (nodes, switch, firewall, balancer), then the
  // power plane sizes its battery/breaker against the fleet, then the
  // control plane starts empty. Golden exports depend on this order.
  DataPlane data_;
  PowerPlane power_;
  ControlPlane control_;

  metrics::RequestMetrics request_metrics_;
  std::vector<workload::RecordSink> listeners_;

  // Observability (all null when no hub is attached to the engine).
  obs::Hub* hub_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;
  obs::Counter* obs_outcome_[7] = {};

  sim::PeriodicHandle slot_task_;
};

}  // namespace dope::cluster
