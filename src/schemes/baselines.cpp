#include "schemes/baselines.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace dope::schemes {

namespace {

/// Token bucket capacity, in seconds of refill.
constexpr double kBurstSeconds = 1.0;

}  // namespace

// ---------------------------------------------------------------- Capping

void CappingScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  target_ = cluster.ladder().max_level();
}

void CappingScheme::on_slot(Time now, Duration slot) {
  (void)now;
  (void)slot;
  auto nodes = cluster_->data().servers();
  const Watts budget = cluster_->power().budget();
  const Watts demand = cluster_->data().total_power();
  const auto& ladder = cluster_->ladder();

  if (demand > budget) {
    // Throttle: deepest-first search for the highest level that fits.
    const power::DvfsLevel level =
        find_uniform_level(nodes, ladder, budget, target_);
    if (level != target_) {
      target_ = level;
      request_uniform_level(nodes, target_);
    } else if (level == ladder.min_level()) {
      // Already at the floor; nothing more DVFS can do.
      request_uniform_level(nodes, target_);
    }
    return;
  }
  // Recover one step per slot when there is comfortable headroom.
  if (target_ < ladder.max_level()) {
    const power::DvfsLevel next = target_ + 1;
    const Watts projected = estimate_power_at_uniform(nodes, next);
    if (projected <= budget * (1.0 - kRaiseHeadroom)) {
      target_ = next;
      request_uniform_level(nodes, target_);
    }
  }
}

// ---------------------------------------------------------------- Shaving

void ShavingScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  target_ = cluster.ladder().max_level();
  battery::Battery* battery = cluster.power().battery();
  DOPE_REQUIRE(battery != nullptr,
               "ShavingScheme requires a cluster battery");
}

void ShavingScheme::on_slot(Time now, Duration slot) {
  (void)now;
  auto nodes = cluster_->data().servers();
  const Watts budget = cluster_->power().budget();
  // Sense the worse of the instantaneous reading and the just-finished
  // slot's average so intra-slot load growth stays off the utility feed.
  const Watts demand =
      std::max(cluster_->data().total_power(), cluster_->power().last_slot_demand());
  const auto& ladder = cluster_->ladder();
  battery::Battery& battery = *cluster_->power().battery();

  last_battery_power_ = Watts{0.0};
  const Watts deficit = demand - budget;
  if (deficit > Watts{0.0}) {
    // Battery first: reserve the discharge for this whole slot, with a
    // small guard band on top of the instantaneous reading so intra-slot
    // load growth does not leak onto the utility feed.
    const Watts guard = 0.03 * budget;
    last_battery_power_ = battery.discharge(deficit + guard, slot);
    const Watts remaining = deficit - last_battery_power_;
    if (remaining > Watts{1e-9}) {
      // The battery could not carry the peak alone: DVFS covers the rest.
      const Watts allowance = budget + last_battery_power_;
      const power::DvfsLevel level =
          find_uniform_level(nodes, ladder, allowance, target_);
      target_ = level;
      request_uniform_level(nodes, target_);
    }
    return;
  }

  // Headroom: recover frequency first, then recharge with what is left.
  Watts headroom = -deficit;
  if (target_ < ladder.max_level()) {
    const power::DvfsLevel next = target_ + 1;
    const Watts projected = estimate_power_at_uniform(nodes, next);
    if (projected <= budget * (1.0 - kRaiseHeadroom)) {
      target_ = next;
      request_uniform_level(nodes, target_);
      headroom = std::max(Watts{0.0}, budget - projected);
    }
  }
  if (headroom > Watts{0.0} && !battery.full()) {
    battery.charge(headroom, slot);
  }
}

// ------------------------------------------------------------------ Token

void TokenScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  // Usable power for request work: budget minus what the cluster burns
  // when fully idle at maximum frequency.
  Watts idle_floor{0.0};
  for (auto* n : cluster.data().servers()) {
    idle_floor += n->power_model().idle_power(cluster.ladder().max_level());
  }
  base_refill_ = std::max(Watts{1.0}, cluster.power().budget() - idle_floor);
  bucket_ = std::make_unique<net::EnergyTokenBucket>(
      Joules{base_refill_.value() * kBurstSeconds}, base_refill_);
}

Joules TokenScheme::request_cost(const workload::Request& request) const {
  const auto& profile = cluster_->catalog().type(request.type);
  const auto max_level = cluster_->ladder().max_level();
  const Watts p = power::active_power(profile.power, 1.0);
  const Duration t = profile.service_time(
      cluster_->ladder().relative(max_level), request.size_factor);
  return energy_of(p, t);
}

bool TokenScheme::admit(const workload::Request& request) {
  DOPE_ASSERT(bucket_ != nullptr);
  return bucket_->try_consume(request_cost(request),
                              cluster_->engine().now());
}

void TokenScheme::on_slot(Time now, Duration slot) {
  (void)slot;
  // Feedback trim: if the finished slot still overshot the budget (cost
  // under-estimation), shrink the refill; recover slowly when well under.
  const Watts budget = cluster_->power().budget();
  const Watts demand = cluster_->power().last_slot_demand();
  if (demand > budget) {
    refill_scale_ = std::max(0.05, refill_scale_ * 0.8);
  } else if (demand < 0.9 * budget && refill_scale_ < 1.0) {
    refill_scale_ = std::min(1.0, refill_scale_ * 1.05);
  }
  bucket_->set_refill_rate(base_refill_ * refill_scale_, now);
}

}  // namespace dope::schemes
