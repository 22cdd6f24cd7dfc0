#include "antidope/graded.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace dope::antidope {

namespace {

/// Number of power classes / pools.
constexpr std::size_t kNumClasses = 3;
/// Fraction of servers given to each non-lightest class pool; the
/// lightest class receives the remainder.
constexpr double kPoolFractionPerClass = 0.2;

}  // namespace

void GradedAntiDopeScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  classifier_ = std::make_unique<PowerClassifier>(
      PowerClassifier::from_catalog(cluster.catalog(),
                                    kNumClasses));
  auto nodes = cluster.data().servers();
  DOPE_REQUIRE(nodes.size() >= kNumClasses,
               "need at least one server per class");

  // Heaviest classes get their dedicated slices from the top of the
  // index range; the lightest class keeps the (large) remainder.
  const auto per_class = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(nodes.size()) *
                 kPoolFractionPerClass +
             0.5));
  pools_.clear();
  pools_.resize(kNumClasses);
  std::size_t cursor = nodes.size();
  for (std::size_t c = kNumClasses - 1; c >= 1; --c) {
    const std::size_t take =
        std::min(per_class, cursor - 1);  // always leave >= 1 for class 0
    for (std::size_t i = 0; i < take; ++i) {
      pools_[c].nodes.push_back(nodes[--cursor]);
    }
  }
  for (std::size_t i = 0; i < cursor; ++i) {
    pools_[0].nodes.push_back(nodes[i]);
  }
  for (auto& pool : pools_) {
    DOPE_REQUIRE(!pool.nodes.empty(), "empty class pool");
    pool.balancer = std::make_unique<net::LoadBalancer>(
        net::LbPolicy::kLeastLoaded,
        std::vector<net::Backend*>(pool.nodes.begin(), pool.nodes.end()));
    pool.target = cluster.ladder().max_level();
  }
}

net::Backend* GradedAntiDopeScheme::route(
    const workload::Request& request) {
  const std::size_t c = classifier_->class_of(request.type);
  net::Backend* b = pools_[c].balancer->select(request);
  if (b == nullptr && c == 0) {
    // Lightest class may degrade upward into the class-1 pool rather
    // than dropping legitimate traffic; heavy classes never spill down.
    b = pools_[1].balancer->select(request);
  }
  return b;
}

void GradedAntiDopeScheme::detach() {
  pools_.clear();
  classifier_.reset();
  ControlStage::detach();
}

void GradedAntiDopeScheme::on_slot(Time now, Duration slot) {
  (void)now;
  const Watts budget = cluster_->power().budget();
  const Watts demand = cluster_->data().total_power();
  const auto& ladder = cluster_->ladder();
  battery::Battery* battery = cluster_->power().battery();

  last_battery_power_ = Watts{0.0};
  const Watts deficit = demand - budget;
  if (deficit > Watts{0.0}) {
    // Throttle heaviest class first; each class gets whatever remains of
    // the budget after every other pool's current draw. The lightest
    // class (c == 0) is never throttled here.
    for (std::size_t c = pools_.size() - 1; c >= 1; --c) {
      Pool& pool = pools_[c];
      // Allowance: budget minus everything outside this pool at its
      // current target.
      Watts outside{0.0};
      for (std::size_t other = 0; other < pools_.size(); ++other) {
        if (other == c) continue;
        outside += schemes::estimate_power_at_uniform(
            pools_[other].nodes, pools_[other].target);
      }
      const Watts allowance = std::max(Watts{0.0}, budget - outside);
      const auto level = schemes::find_uniform_level(
          pool.nodes, ladder, allowance, pool.target);
      if (level != pool.target) {
        pool.target = level;
        schemes::request_uniform_level(pool.nodes, pool.target);
      }
      // If this class alone brought the estimate under budget, lighter
      // classes stay untouched.
      const Watts projected =
          outside +
          schemes::estimate_power_at_uniform(pool.nodes, pool.target);
      if (projected <= budget) break;
    }
    if (battery != nullptr) {
      last_battery_power_ = battery->discharge(deficit, slot);
    }
    return;
  }

  // Headroom: restore lightest-first, one pool-step per slot.
  Watts headroom = -deficit;
  for (std::size_t c = 0; c < pools_.size(); ++c) {
    Pool& pool = pools_[c];
    if (pool.target >= ladder.max_level()) continue;
    const auto next = pool.target + 1;
    Watts projected = schemes::estimate_power_at_uniform(pool.nodes, next);
    for (std::size_t other = 0; other < pools_.size(); ++other) {
      if (other == c) continue;
      projected += schemes::estimate_power_at_uniform(
          pools_[other].nodes, pools_[other].target);
    }
    if (projected <= budget * (1.0 - schemes::kRaiseHeadroom)) {
      pool.target = next;
      schemes::request_uniform_level(pool.nodes, pool.target);
      headroom = std::max(Watts{0.0}, budget - projected);
    }
    break;  // one adjustment per slot
  }
  if (battery != nullptr && headroom > Watts{0.0} && !battery->full()) {
    battery->charge(headroom, slot);
  }
}

}  // namespace dope::antidope
