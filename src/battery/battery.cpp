#include "battery/battery.hpp"

#include <algorithm>

#include "common/audit.hpp"
#include "common/expect.hpp"

namespace dope::battery {

BatterySpec BatterySpec::sized_for(Watts load, Duration duration,
                                   double charge_fraction) {
  DOPE_REQUIRE(load > Watts{0.0}, "load must be positive");
  DOPE_REQUIRE(duration > 0, "duration must be positive");
  DOPE_REQUIRE(charge_fraction > 0, "charge fraction must be positive");
  BatterySpec spec;
  spec.capacity = energy_of(load, duration);
  spec.max_discharge = load;
  spec.max_charge = load * charge_fraction;
  return spec;
}

Battery::Battery(BatterySpec spec) : spec_(spec), stored_(spec.capacity) {
  DOPE_REQUIRE(spec_.capacity > Joules{0.0},
               "battery capacity must be positive");
  DOPE_REQUIRE(spec_.charge_efficiency > 0 && spec_.charge_efficiency <= 1.0,
               "charge efficiency must be in (0, 1]");
}

double Battery::soc() const { return stored_ / spec_.capacity; }

Watts Battery::discharge(Watts power, Duration slot) {
  DOPE_REQUIRE(power >= Watts{0.0}, "discharge power must be non-negative");
  DOPE_REQUIRE(slot > 0, "slot must be positive");
  if (power <= Watts{0.0} || empty()) return Watts{0.0};
  Watts deliverable = power;
  if (spec_.max_discharge > Watts{0.0}) {
    deliverable = std::min(deliverable, spec_.max_discharge);
  }
  // Energy-limited: cannot deliver more than what is stored this slot.
  const Watts energy_limit = stored_ / slot;
  deliverable = std::min(deliverable, energy_limit);
  const Joules withdrawn = energy_of(deliverable, slot);
  stored_ = std::max(Joules{0.0}, stored_ - withdrawn);
  total_discharged_ += withdrawn;
  if (withdrawn > Joules{0.0}) ++discharge_events_;
  if constexpr (audit::kEnabled) {
    audit::check_battery_rate(nullptr, -1, deliverable,
                              spec_.max_discharge, "discharge");
    audit::check_battery_soc(nullptr, -1, stored_, spec_.capacity);
  }
  return deliverable;
}

Watts Battery::charge(Watts power, Duration slot) {
  DOPE_REQUIRE(power >= Watts{0.0}, "charge power must be non-negative");
  DOPE_REQUIRE(slot > 0, "slot must be positive");
  if (power <= Watts{0.0} || full()) return Watts{0.0};
  Watts drawn = power;
  if (spec_.max_charge > Watts{0.0}) {
    drawn = std::min(drawn, spec_.max_charge);
  }
  // Do not overshoot capacity: limit by the room left, accounting for the
  // efficiency loss between drawn and stored energy.
  const Joules room = spec_.capacity - stored_;
  const Watts room_limit{
      room.value() / (spec_.charge_efficiency * to_seconds(slot))};
  drawn = std::min(drawn, room_limit);
  const Joules stored_gain = energy_of(drawn, slot) * spec_.charge_efficiency;
  stored_ = std::min(spec_.capacity, stored_ + stored_gain);
  total_charge_drawn_ += energy_of(drawn, slot);
  if constexpr (audit::kEnabled) {
    audit::check_battery_rate(nullptr, -1, drawn, spec_.max_charge,
                              "charge");
    audit::check_battery_soc(nullptr, -1, stored_, spec_.capacity);
  }
  return drawn;
}

}  // namespace dope::battery
