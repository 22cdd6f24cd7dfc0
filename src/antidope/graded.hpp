// Graded (n-pool) Anti-DOPE.
//
// The binary suspect list lumps every heavy URL into one pool, so a
// flood on *one* heavy URL also swamps the legitimate users of every
// other heavy URL. The graded variant applies Section 5.3's n-level
// classification structurally: one server pool per power class, sized
// proportionally, throttled heaviest-class-first when the budget is
// violated. A Word-Count flood then shares a pool only with other
// middle-class URLs, leaving legitimate Colla-Filt (top class) traffic
// on its own hardware.
#pragma once

#include <memory>
#include <vector>

#include "antidope/power_classes.hpp"
#include "cluster/cluster.hpp"
#include "cluster/stage.hpp"
#include "net/load_balancer.hpp"
#include "schemes/util.hpp"

namespace dope::antidope {

/// n-pool, graded-throttling Anti-DOPE.
class GradedAntiDopeScheme final : public cluster::ControlStage {
 public:
  std::string name() const override { return "Graded-Anti-DOPE"; }
  void attach(cluster::Cluster& cluster) override;
  void detach() override;
  net::Backend* route(const workload::Request& request) override;
  void on_slot(Time now, Duration slot) override;

  const PowerClassifier& classifier() const { return *classifier_; }
  std::size_t pool_size(std::size_t c) const {
    return pools_[c].nodes.size();
  }
  power::DvfsLevel pool_level(std::size_t c) const {
    return pools_[c].target;
  }

 private:
  struct Pool {
    std::vector<server::ServerNode*> nodes;
    std::unique_ptr<net::LoadBalancer> balancer;
    power::DvfsLevel target = 0;
  };

  std::unique_ptr<PowerClassifier> classifier_;
  /// pools_[c] serves power class c (0 = lightest).
  std::vector<Pool> pools_;
  Watts last_battery_power_{0.0};
};

}  // namespace dope::antidope
