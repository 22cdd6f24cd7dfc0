// The paper's baseline power-management schemes (Table 2).
//
//   None     no enforcement at all — the uncapped reference used by the
//            vulnerability-characterisation experiments (Figs. 3-5).
//   Capping  traditional performance-scaling-only capping: when demand
//            exceeds the budget, the whole cluster is DVFS-throttled to
//            the highest uniform level that fits; frequencies recover
//            step-wise once there is headroom.
//   Shaving  UPS-based peak shaving (Govindan/Wang style): the battery
//            absorbs the deficit first and DVFS engages only for whatever
//            the battery cannot deliver; headroom recharges the battery.
//   Token    a *power-based* token bucket at the NLB: the bucket refills
//            with the budget's usable joules and each admitted request
//            debits its estimated energy; requests beyond that are shed.
//            A slow multiplicative feedback trims the refill rate when a
//            slot still overshoots (estimation error), mimicking an
//            adaptive rate limiter.
#pragma once

#include "cluster/cluster.hpp"
#include "cluster/stage.hpp"
#include "net/token_bucket.hpp"
#include "schemes/util.hpp"

namespace dope::schemes {

/// No power management: demand is never capped.
class NoScheme final : public cluster::ControlStage {
 public:
  std::string name() const override { return "None"; }
  void on_slot(Time now, Duration slot) override {
    (void)now;
    (void)slot;
  }
};

/// DVFS-only capping of the whole cluster.
class CappingScheme final : public cluster::ControlStage {
 public:
  /// `headroom_margin`: fraction of the budget that must remain free for a
  /// frequency raise to be attempted (hysteresis against oscillation).
  explicit CappingScheme(double headroom_margin = 0.02);

  std::string name() const override { return "Capping"; }
  void attach(cluster::Cluster& cluster) override;
  void detach() override;
  void on_slot(Time now, Duration slot) override;

 private:
  double headroom_margin_;
  power::DvfsLevel target_;
  bool attached_ = false;
};

/// Battery-first peak shaving with DVFS fallback.
class ShavingScheme final : public cluster::ControlStage {
 public:
  explicit ShavingScheme(double headroom_margin = 0.02);

  std::string name() const override { return "Shaving"; }
  void attach(cluster::Cluster& cluster) override;
  void on_slot(Time now, Duration slot) override;

  /// Watts the battery delivered in the most recent slot (telemetry).
  Watts last_battery_power() const { return last_battery_power_; }

 private:
  double headroom_margin_;
  power::DvfsLevel target_;
  Watts last_battery_power_{0.0};
};

/// Power-based token-bucket admission control at the NLB.
class TokenScheme final : public cluster::ControlStage {
 public:
  /// `burst_seconds`: bucket capacity expressed as seconds of refill.
  explicit TokenScheme(double burst_seconds = 1.0);

  std::string name() const override { return "Token"; }
  void attach(cluster::Cluster& cluster) override;
  void detach() override;
  bool admit(const workload::Request& request) override;
  void on_slot(Time now, Duration slot) override;

  const net::EnergyTokenBucket& bucket() const { return *bucket_; }

 private:
  /// Estimated energy (joules) one request costs at full frequency.
  Joules request_cost(const workload::Request& request) const;

  double burst_seconds_;
  std::unique_ptr<net::EnergyTokenBucket> bucket_;
  /// Usable refill (budget minus the cluster idle floor).
  Watts base_refill_{0.0};
  /// Multiplicative feedback on the refill rate.
  double refill_scale_ = 1.0;
};

}  // namespace dope::schemes
