// Per-node proportional capping through the RAPL interface.
//
// An ablation of the Capping baseline's design choice: instead of forcing
// one *uniform* DVFS level onto the whole cluster, distribute the budget
// across nodes proportionally to their instantaneous demand and let each
// node's RAPL actuator pick its own operating point. Lightly loaded nodes
// keep their frequency; only the hot ones throttle.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/stage.hpp"
#include "server/rapl.hpp"

namespace dope::schemes {

/// Demand-proportional per-node power capping.
class RaplCappingScheme final : public cluster::ControlStage {
 public:
  std::string name() const override { return "RAPL-Capping"; }
  void attach(cluster::Cluster& cluster) override;
  void on_slot(Time now, Duration slot) override;

  /// True while per-node caps are active.
  bool capping() const { return capping_; }

 private:
  std::vector<std::unique_ptr<server::RaplInterface>> rapl_;
  bool capping_ = false;
};

}  // namespace dope::schemes
