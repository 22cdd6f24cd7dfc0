// Hierarchy-aware power capping.
//
// Flat capping watches one number — cluster total vs. facility budget —
// and misses rack-local emergencies: a flood concentrated on one rack
// (source-affinity routing, a hot shard) can overload that rack's PDU
// while the cluster total stays comfortably under the feed rating. This
// scheme enforces *every* level of the delivery tree: each violated PDU
// throttles its own rack, and a facility-level violation throttles
// everything (like flat capping).
#pragma once

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/stage.hpp"
#include "power/hierarchy.hpp"
#include "schemes/util.hpp"

namespace dope::obs {
class Counter;
class Hub;
}  // namespace dope::obs

namespace dope::schemes {

/// Per-level capping over a PowerTopology.
class HierarchicalCappingScheme final : public cluster::ControlStage {
 public:
  /// The topology must cover exactly the cluster's servers (validated at
  /// attach time).
  explicit HierarchicalCappingScheme(power::PowerTopology topology);

  std::string name() const override { return "Hier-Capping"; }
  void attach(cluster::Cluster& cluster) override;
  void on_slot(Time now, Duration slot) override;

  const power::PowerTopology& topology() const { return topology_; }

  /// Load snapshot of the most recent slot.
  const power::HierarchyLoad& last_load() const { return last_load_; }

  /// Rack-local violations detected so far (facility was fine).
  std::uint64_t rack_interventions() const { return rack_interventions_; }

 private:
  power::PowerTopology topology_;
  /// Per-PDU node groups and their current uniform target levels.
  std::vector<std::vector<server::ServerNode*>> rack_nodes_;
  std::vector<power::DvfsLevel> rack_target_;
  std::vector<unsigned> rack_clean_slots_;
  power::HierarchyLoad last_load_;
  std::uint64_t rack_interventions_ = 0;
  obs::Hub* hub_ = nullptr;
  obs::Counter* obs_facility_violations_ = nullptr;
  obs::Counter* obs_rack_violations_ = nullptr;
};

}  // namespace dope::schemes
