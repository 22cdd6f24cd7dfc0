// Power plane: provisioning, breaker, battery, and energy accounting.
//
// Owns everything electrical about one cluster (zone): the facility
// budget, the optional UPS battery, the branch-circuit breaker on the
// utility feed, and the per-slot energy books (utility vs. battery from
// exact integrals). Once per management slot, `run_slot` measures the
// finished slot's average demand, settles the energy accounts, applies
// breaker protection (a trip blacks the fleet out through the data
// plane), and feeds the watchdog — after which the cluster's control
// stage enforces policy on what it measured.
//
// The budget is mutable at runtime (`set_budget`): inside a `site::Site`
// a facility-level divider reapportions one shared budget across zones
// every slot, so a zone's supply is a policy output rather than a
// constant.
#pragma once

#include <optional>
#include <string>

#include "battery/battery.hpp"
#include "common/units.hpp"
#include "metrics/energy.hpp"
#include "power/breaker.hpp"
#include "power/provisioning.hpp"

namespace dope::obs {
class Counter;
class Gauge;
class Histo;
class Hub;
class Series;
}  // namespace dope::obs

namespace dope::cluster {

class Cluster;
class DataPlane;
struct ClusterConfig;

/// Per-slot management telemetry.
struct SlotStats {
  std::uint64_t slots = 0;
  /// Slots whose *average* demand exceeded the budget (power violations
  /// that made it past the management plane).
  std::uint64_t violation_slots = 0;
  /// Slots where the *utility feed* (demand minus battery discharge)
  /// exceeded the budget — the violations that actually trip breakers.
  std::uint64_t utility_violation_slots = 0;
  /// Worst single-slot overshoot above the budget (watts).
  Watts worst_overshoot{0.0};
  /// Unplanned outages (breaker trips).
  std::uint64_t outages = 0;
  /// Total time the cluster spent dark.
  Duration downtime = 0;
};

/// Electrical side of one cluster.
class PowerPlane {
 public:
  /// `owner` provides the engine and the fleet (through `data`); both
  /// outlive the plane.
  PowerPlane(Cluster& owner, DataPlane& data, const ClusterConfig& config);

  PowerPlane(const PowerPlane&) = delete;
  PowerPlane& operator=(const PowerPlane&) = delete;

  // --- provisioning ---
  /// Facility power budget (watts).
  Watts budget() const { return budget_.supply; }
  /// Re-provisions the budget (site-level dividers; tests). Takes effect
  /// from the next slot's enforcement.
  void set_budget(Watts supply);
  /// Aggregate nameplate rating of the fleet (watts).
  Watts total_nameplate() const;

  /// Average aggregate power over the last completed slot.
  Watts last_slot_demand() const { return last_slot_demand_; }

  // --- electrical components ---
  battery::Battery* battery() { return battery_ ? &*battery_ : nullptr; }
  const battery::Battery* battery() const {
    return battery_ ? &*battery_ : nullptr;
  }
  power::CircuitBreaker* breaker() {
    return breaker_ ? &*breaker_ : nullptr;
  }
  /// True while a breaker trip has the cluster dark.
  bool in_outage() const { return in_outage_; }

  // --- accounting ---
  const metrics::EnergyAccount& energy_account() const {
    return energy_account_;
  }
  const SlotStats& slot_stats() const { return slot_stats_; }

  // --- wiring (Cluster construction / slot loop only) ---
  /// Settles one finished management slot (see file comment).
  void run_slot(Time now);
  /// Binds the electrical metrics/gauges into `hub`'s registry.
  void bind_obs(obs::Hub* hub);

 private:
  Cluster& owner_;
  DataPlane& data_;
  const ClusterConfig& config_;
  int zone_;
  power::PowerBudget budget_;

  std::optional<battery::Battery> battery_;
  std::optional<power::CircuitBreaker> breaker_;
  bool in_outage_ = false;
  Time outage_started_ = 0;

  metrics::EnergyAccount energy_account_;
  SlotStats slot_stats_;
  Joules prev_load_energy_{0.0};
  Joules prev_battery_discharged_{0.0};
  Joules prev_battery_charge_drawn_{0.0};
  Watts last_slot_demand_{0.0};

  // Watchdog signal names (zone-suffixed inside a Site).
  std::string signal_slot_demand_;
  std::string signal_utility_;
  std::string signal_battery_soc_;
  std::string signal_breaker_heat_;

  obs::Hub* hub_ = nullptr;
  obs::Counter* obs_violation_slots_ = nullptr;
  obs::Counter* obs_utility_violation_slots_ = nullptr;
  obs::Counter* obs_battery_discharge_slots_ = nullptr;
  obs::Counter* obs_outage_count_ = nullptr;
  obs::Gauge* obs_slot_demand_ = nullptr;
  obs::Gauge* obs_utility_ = nullptr;
  obs::Gauge* obs_battery_soc_ = nullptr;
  obs::Gauge* obs_breaker_heat_ = nullptr;
  obs::Histo* obs_overshoot_ = nullptr;

  // Per-slot time series (null unless the hub has a TimeSeriesStore).
  obs::Series* ts_demand_ = nullptr;
  obs::Series* ts_budget_ = nullptr;
  obs::Series* ts_headroom_ = nullptr;
  obs::Series* ts_utility_ = nullptr;
  obs::Series* ts_load_energy_ = nullptr;
  obs::Series* ts_battery_soc_ = nullptr;
  obs::Series* ts_battery_discharge_ = nullptr;
  obs::Series* ts_breaker_heat_ = nullptr;
};

}  // namespace dope::cluster
