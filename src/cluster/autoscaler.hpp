// Auto-scaling resource allocation.
//
// The paper (Section 1) observes that data centers "excessively rely on
// network load balancers and auto-scaling resource allocation" — which
// gives DOPE its leverage: hostile requests look like legitimate demand,
// so the auto-scaler wakes *more* servers for them and the aggregate
// power climbs with the attack. This module implements that substrate: a
// utilisation-targeting controller that parks idle nodes into deep sleep
// and wakes them as offered load grows.
//
// Scale-down is graceful: a node is first drained (stops accepting) and
// only parked once its in-flight work finishes.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace dope::cluster {

class Cluster;

/// Auto-scaler tuning.
struct AutoScalerConfig {
  /// Never park below this many serving nodes.
  std::size_t min_active = 1;
  /// Nodes woken/drained per decision.
  unsigned step = 1;
};

/// Utilisation-driven park/unpark controller over a cluster's nodes.
class AutoScaler {
 public:
  AutoScaler(Cluster& cluster, AutoScalerConfig config = {});
  ~AutoScaler();

  AutoScaler(const AutoScaler&) = delete;
  AutoScaler& operator=(const AutoScaler&) = delete;

  /// Nodes currently serving (not parked/waking/draining).
  std::size_t serving_count() const;
  /// Nodes currently parked.
  std::size_t parked_count() const;

  /// Busy-core utilisation of the serving set (0 when none serve).
  double utilization() const;

  std::uint64_t scale_ups() const { return scale_ups_; }
  std::uint64_t scale_downs() const { return scale_downs_; }

  /// One controller step (also invoked periodically).
  void tick();

 private:
  Cluster* cluster_;
  AutoScalerConfig config_;
  sim::PeriodicHandle task_;
  /// Nodes draining toward a park (accepting off, work finishing).
  std::vector<int> draining_;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
};

}  // namespace dope::cluster
