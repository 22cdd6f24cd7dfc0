// The paper's baseline power-management schemes (Table 2).
//
//   None     no enforcement at all — the uncapped reference used by the
//            vulnerability-characterisation experiments (Figs. 3-5).
//            It has no class: a cluster with no control stage is it.
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

/// DVFS-only capping of the whole cluster.
class CappingScheme final : public cluster::ControlStage {
 public:
  std::string name() const override { return "Capping"; }
  void attach(cluster::Cluster& cluster) override;
  void on_slot(Time now, Duration slot) override;

 private:
  power::DvfsLevel target_ = 0;
};

/// Battery-first peak shaving with DVFS fallback.
class ShavingScheme final : public cluster::ControlStage {
 public:
  std::string name() const override { return "Shaving"; }
  void attach(cluster::Cluster& cluster) override;
  void on_slot(Time now, Duration slot) override;

  /// Watts the battery delivered in the most recent slot (telemetry).
  Watts last_battery_power() const { return last_battery_power_; }

 private:
  power::DvfsLevel target_ = 0;
  Watts last_battery_power_{0.0};
};

/// Power-based token-bucket admission control at the NLB.
class TokenScheme final : public cluster::ControlStage {
 public:
  std::string name() const override { return "Token"; }
  void attach(cluster::Cluster& cluster) override;
  bool admit(const workload::Request& request) override;
  void on_slot(Time now, Duration slot) override;

  const net::EnergyTokenBucket& bucket() const { return *bucket_; }

 private:
  /// Estimated energy (joules) one request costs at full frequency.
  Joules request_cost(const workload::Request& request) const;

  std::unique_ptr<net::EnergyTokenBucket> bucket_;
  /// Usable refill (budget minus the cluster idle floor).
  Watts base_refill_{0.0};
  /// Multiplicative feedback on the refill rate.
  double refill_scale_ = 1.0;
};

}  // namespace dope::schemes
