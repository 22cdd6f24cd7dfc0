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
#include <optional>
#include <vector>

#include "antidope/dpm.hpp"
#include "antidope/power_classes.hpp"
#include "cluster/cluster.hpp"
#include "cluster/stage.hpp"
#include "net/load_balancer.hpp"

namespace dope::antidope {

/// n-pool, graded-throttling Anti-DOPE.
class GradedAntiDopeScheme final : public cluster::ControlStage {
 public:
  std::string name() const override { return "Graded-Anti-DOPE"; }
  void attach(cluster::Cluster& cluster) override;
  net::Backend* route(const workload::Request& request) override;
  void on_slot(Time now, Duration slot) override;

  const PowerClassifier& classifier() const { return *classifier_; }
  std::size_t pool_size(std::size_t c) const {
    return dpm_.value().levels(dpm_pool(c)).size();
  }
  /// Lowest level in class `c`'s pool.
  power::DvfsLevel pool_level(std::size_t c) const {
    return dpm_.value().level(dpm_pool(c));
  }

 private:
  /// DPM throttles heaviest class first: class c is DPM pool n-1-c.
  std::size_t dpm_pool(std::size_t c) const {
    return balancers_.size() - 1 - c;
  }

  std::unique_ptr<PowerClassifier> classifier_;
  /// balancers_[c] serves power class c (0 = lightest).
  std::vector<std::unique_ptr<net::LoadBalancer>> balancers_;
  std::optional<PooledDpm> dpm_;
};

}  // namespace dope::antidope
