#include "cluster/power_plane.hpp"

#include <algorithm>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/data_plane.hpp"
#include "common/audit.hpp"
#include "common/expect.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"

namespace dope::cluster {

PowerPlane::PowerPlane(Cluster& owner, DataPlane& data,
                       const ClusterConfig& config)
    : owner_(owner),
      data_(data),
      config_(config),
      zone_(config.zone),
      budget_(config.budget_override > Watts{0.0}
                  ? power::PowerBudget{config.budget_override}
                  : power::PowerBudget::for_level(
                        config.budget_level,
                        config.server_spec.nameplate *
                            static_cast<double>(config.num_servers))),
      signal_slot_demand_(
          zone_name(Cluster::kSignalSlotDemand, config.zone)),
      signal_utility_(zone_name(Cluster::kSignalUtility, config.zone)),
      signal_battery_soc_(
          zone_name(Cluster::kSignalBatterySoc, config.zone)),
      signal_breaker_heat_(
          zone_name(Cluster::kSignalBreakerHeat, config.zone)) {
  if (config.battery_runtime > 0) {
    auto spec = battery::BatterySpec::sized_for(total_nameplate(),
                                                config.battery_runtime);
    spec.reserve_fraction = config.battery_reserve_fraction;
    battery_.emplace(spec);
  }
  if (config.breaker.has_value()) {
    breaker_.emplace(*config.breaker);
  }
}

void PowerPlane::set_budget(Watts supply) {
  DOPE_REQUIRE(supply > Watts{0.0}, "budget must be positive");
  budget_.supply = supply;
}

Watts PowerPlane::total_nameplate() const {
  return config_.server_spec.nameplate *
         static_cast<double>(config_.num_servers);
}

void PowerPlane::bind_obs(obs::Hub* hub) {
  hub_ = hub;
  if (hub_ == nullptr) return;
  auto& reg = hub_->registry();
  obs::Labels labels;
  if (zone_ >= 0) labels.emplace_back("zone", std::to_string(zone_));
  obs_violation_slots_ = &reg.counter("cluster.violation_slots", labels);
  obs_utility_violation_slots_ =
      &reg.counter("cluster.utility_violation_slots", labels);
  obs_battery_discharge_slots_ =
      &reg.counter("battery.discharge_slots", labels);
  obs_outage_count_ = &reg.counter("cluster.outages", labels);
  obs_slot_demand_ = &reg.gauge("cluster.slot_demand_w", labels);
  obs_utility_ = &reg.gauge("cluster.utility_w", labels);
  if (battery_) obs_battery_soc_ = &reg.gauge("battery.soc", labels);
  if (breaker_) obs_breaker_heat_ = &reg.gauge("breaker.heat", labels);
  obs_overshoot_ = &reg.histo("cluster.overshoot_w", labels);
  if (obs::TimeSeriesStore* ts = hub_->timeseries(); ts != nullptr) {
    ts_demand_ = &ts->series(signal_slot_demand_);
    ts_budget_ = &ts->series(zone_name("cluster.budget_w", zone_));
    ts_headroom_ = &ts->series(zone_name("cluster.headroom_w", zone_));
    ts_utility_ = &ts->series(signal_utility_);
    ts_load_energy_ =
        &ts->series(zone_name("cluster.load_energy_j", zone_));
    if (battery_) {
      ts_battery_soc_ = &ts->series(signal_battery_soc_);
      ts_battery_discharge_ =
          &ts->series(zone_name("battery.discharge_w", zone_));
    }
    if (breaker_) ts_breaker_heat_ = &ts->series(signal_breaker_heat_);
  }
}

void PowerPlane::run_slot(Time now) {
  sim::Engine& engine = owner_.engine();
  const Duration slot = config_.slot;

  // Average demand over the slot that just finished, from exact energy.
  const Joules load_energy = data_.total_energy();
  const Joules slot_energy = load_energy - prev_load_energy_;
  prev_load_energy_ = load_energy;
  last_slot_demand_ = slot_energy / slot;

  // Sample the demand-side series before any trigger event fires so an
  // incident captured this slot already includes the slot that caused
  // it. `load_energy` is cumulative: post-mortems reconcile the demand
  // series against it (sum of demand x slot == last load_energy).
  if (ts_demand_ != nullptr) {
    ts_demand_->sample(now, last_slot_demand_.value());
    ts_budget_->sample(now, budget_.supply.value());
    ts_headroom_->sample(now,
                         (budget_.supply - last_slot_demand_).value());
    ts_load_energy_->sample(now, load_energy.value());
  }

  ++slot_stats_.slots;
  const Watts overshoot = last_slot_demand_ - budget_.supply;
  if (overshoot > Watts{1e-9}) {
    ++slot_stats_.violation_slots;
    slot_stats_.worst_overshoot =
        std::max(slot_stats_.worst_overshoot, overshoot);
  }
  if (hub_ != nullptr) {
    obs_slot_demand_->set(last_slot_demand_.value());
    if (overshoot > Watts{1e-9}) {
      obs_violation_slots_->inc();
      obs_overshoot_->observe(overshoot.value());
      obs::TraceEvent e;
      e.t = now;
      e.type = obs::EventType::kBudgetViolation;
      e.source = "cluster";
      e.num.emplace_back("demand_w", last_slot_demand_.value());
      e.num.emplace_back("budget_w", budget_.supply.value());
      e.num.emplace_back("overshoot_w", overshoot.value());
      if (zone_ >= 0) e.num.emplace_back("zone", zone_);
      hub_->event(std::move(e));
    }
  }

  // Energy source attribution for the finished slot: whatever the battery
  // delivered (or drew for recharge) since the previous boundary shifts
  // between the utility and battery columns. This must happen *before*
  // the control stages act so that a discharge reserved at the start of a
  // slot is credited to that slot, not the one before it.
  Joules battery_delta{0.0};
  Joules recharge_delta{0.0};
  if (battery_) {
    battery_delta = battery_->total_discharged() - prev_battery_discharged_;
    prev_battery_discharged_ = battery_->total_discharged();
    recharge_delta =
        battery_->total_charge_drawn() - prev_battery_charge_drawn_;
    prev_battery_charge_drawn_ = battery_->total_charge_drawn();
  }
  const Joules utility_j =
      std::max(Joules{0.0}, slot_energy - battery_delta);
  if constexpr (audit::kEnabled) {
    // Per-slot power conservation: what the servers drew is covered by
    // the utility feed plus the battery, and nothing went negative.
    audit::check_power_conservation(hub_, now, slot_energy, utility_j,
                                    battery_delta);
    audit::check_non_negative(hub_, now, "battery.recharge_j",
                              recharge_delta.value());
    if (battery_) {
      audit::check_battery_soc(hub_, now, battery_->stored(),
                               battery_->spec().capacity);
    }
  }
  energy_account_.add_joules(utility_j, battery_delta, recharge_delta);
  const Watts utility_power = (utility_j + recharge_delta) / slot;
  // Utility-side series, again ahead of the breaker so a trip capture
  // sees this slot's feed. Breaker heat is the value entering the slot
  // boundary (observe() below adds this slot's heating).
  if (ts_utility_ != nullptr) {
    ts_utility_->sample(now, utility_power.value());
    if (battery_) {
      ts_battery_soc_->sample(now, battery_->soc());
      ts_battery_discharge_->sample(now, (battery_delta / slot).value());
    }
    if (breaker_) ts_breaker_heat_->sample(now, breaker_->heat());
  }
  if (utility_power > budget_.supply + Watts{1e-9}) {
    ++slot_stats_.utility_violation_slots;
    if (hub_ != nullptr) obs_utility_violation_slots_->inc();
  }
  if (hub_ != nullptr) {
    obs_utility_->set(utility_power.value());
    if (battery_delta > Joules{0.0}) {
      obs_battery_discharge_slots_->inc();
      obs::TraceEvent e;
      e.t = now;
      e.type = obs::EventType::kBatteryDischarge;
      e.source = "battery";
      e.num.emplace_back("joules", battery_delta.value());
      e.num.emplace_back("watts", (battery_delta / slot).value());
      e.num.emplace_back("soc", battery_->soc());
      if (zone_ >= 0) e.num.emplace_back("zone", zone_);
      hub_->event(std::move(e));
    }
    if (recharge_delta > Joules{0.0}) {
      obs::TraceEvent e;
      e.t = now;
      e.type = obs::EventType::kBatteryCharge;
      e.source = "battery";
      e.num.emplace_back("joules", recharge_delta.value());
      e.num.emplace_back("soc", battery_->soc());
      if (zone_ >= 0) e.num.emplace_back("zone", zone_);
      hub_->event(std::move(e));
    }
    if (battery_) obs_battery_soc_->set(battery_->soc());
  }

  // Breaker protection on the utility feed. A trip blacks out the whole
  // cluster (the paper's Fig. 1 unplanned-outage scenario); power returns
  // after the recovery delay and servers reboot.
  if (breaker_ && !in_outage_ &&
      breaker_->observe(utility_power, slot)) {
    in_outage_ = true;
    outage_started_ = now;
    ++slot_stats_.outages;
    if (hub_ != nullptr) {
      obs_outage_count_->inc();
      obs::TraceEvent e;
      e.t = now;
      e.type = obs::EventType::kBreakerTrip;
      e.source = "breaker";
      e.num.emplace_back("utility_w", utility_power.value());
      e.num.emplace_back("rated_w", breaker_->spec().rated.value());
      e.num.emplace_back("trips", breaker_->trips());
      if (zone_ >= 0) e.num.emplace_back("zone", zone_);
      hub_->event(std::move(e));
    }
    data_.power_off_all();
    engine.schedule_after(config_.outage_recovery, [this] {
      breaker_->reset();
      in_outage_ = false;
      sim::Engine& eng = owner_.engine();
      slot_stats_.downtime += eng.now() - outage_started_;
      if (hub_ != nullptr) {
        obs::TraceEvent e;
        e.t = eng.now();
        e.type = obs::EventType::kOutageEnd;
        e.source = "breaker";
        e.num.emplace_back("downtime_s",
                           to_seconds(eng.now() - outage_started_));
        if (zone_ >= 0) e.num.emplace_back("zone", zone_);
        hub_->event(std::move(e));
      }
      data_.power_on_all(config_.reboot_time);
    });
  }
  if (hub_ != nullptr && breaker_) obs_breaker_heat_->set(breaker_->heat());

  // Feed the watchdog one windowed sample of each cluster signal; rules
  // installed on the hub (e.g. "budget violated K slots in a row") fire
  // from these.
  if (hub_ != nullptr) {
    auto& dog = hub_->watchdog();
    dog.observe(signal_slot_demand_, now, last_slot_demand_.value());
    dog.observe(signal_utility_, now, utility_power.value());
    if (battery_) dog.observe(signal_battery_soc_, now, battery_->soc());
    if (breaker_) dog.observe(signal_breaker_heat_, now, breaker_->heat());
  }
}

}  // namespace dope::cluster
