// Battery / UPS energy-storage model.
//
// Data centers increasingly use their UPS batteries not only for outage
// ride-through but for *peak shaving*: discharging to cover short power
// peaks above the utility budget (Govindan et al., Wang et al.). The paper
// sizes a "mini battery" able to sustain the full web-application cluster
// for 2 minutes; a long DOPE-induced peak therefore drains it quickly.
//
// The model is slot-oriented: the power manager asks the battery to cover a
// deficit (watts) for the length of a slot; the battery returns the power
// it can actually deliver given its C-rate limit and remaining energy, and
// accounts the withdrawn joules. Recharge works symmetrically when there is
// budget headroom, with a round-trip efficiency penalty applied on charge.
#pragma once

#include "common/units.hpp"

namespace dope::battery {

/// Static battery parameters.
struct BatterySpec {
  /// Usable energy when fully charged (joules).
  Joules capacity{0.0};
  /// Maximum discharge power (watts). 0 means unlimited by rate.
  Watts max_discharge{0.0};
  /// Maximum recharge power drawn from the supply (watts).
  Watts max_charge{0.0};
  /// Fraction of charged energy actually stored (round-trip efficiency).
  double charge_efficiency = 0.9;

  /// Sizes a battery that can sustain `load` for `duration` (the paper's
  /// 2-minute mini battery), with discharge rate exactly `load` and a
  /// recharge rate of `charge_fraction * load`.
  static BatterySpec sized_for(Watts load, Duration duration,
                               double charge_fraction = 0.25);
};

/// Mutable battery state with energy accounting.
class Battery {
 public:
  explicit Battery(BatterySpec spec);

  const BatterySpec& spec() const { return spec_; }

  /// Remaining stored energy (joules).
  Joules stored() const { return stored_; }

  /// State of charge in [0, 1].
  double soc() const;

  bool empty() const { return stored_ <= Joules{0.0}; }
  bool full() const { return stored_ >= spec_.capacity; }

  /// Requests `power` watts of discharge for `slot` microseconds. Returns
  /// the power actually delivered (possibly less than requested when the
  /// C-rate limit or remaining energy binds). Withdraws the corresponding
  /// energy from the store.
  Watts discharge(Watts power, Duration slot);

  /// Offers `power` watts of headroom for `slot` microseconds. Returns the
  /// power actually drawn from the supply for recharging (capped by the
  /// charge-rate limit and remaining capacity; efficiency loss applies to
  /// the stored amount, not the drawn amount).
  Watts charge(Watts power, Duration slot);

  /// Cumulative energy delivered by discharging since construction.
  Joules total_discharged() const { return total_discharged_; }

  /// Cumulative energy drawn from the supply for charging.
  Joules total_charge_drawn() const { return total_charge_drawn_; }

  /// Number of discharge events that delivered any energy.
  unsigned long discharge_events() const { return discharge_events_; }

  /// Resets charge to full without touching the accounting totals.
  void refill() { stored_ = spec_.capacity; }

 private:
  BatterySpec spec_;
  Joules stored_;
  Joules total_discharged_{0.0};
  Joules total_charge_drawn_{0.0};
  unsigned long discharge_events_ = 0;
};

}  // namespace dope::battery
