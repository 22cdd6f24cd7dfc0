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
  // pools[0] is the heaviest class, the DPM's throttle order.
  std::vector<std::vector<server::ServerNode*>> pools(kNumClasses);
  std::size_t cursor = nodes.size();
  for (std::size_t p = 0; p + 1 < kNumClasses; ++p) {
    const std::size_t take =
        std::min(per_class, cursor - 1);  // always leave >= 1 for class 0
    for (std::size_t i = 0; i < take; ++i) {
      pools[p].push_back(nodes[--cursor]);
    }
  }
  pools.back().assign(nodes.begin(),
                      nodes.begin() + static_cast<long>(cursor));
  balancers_.clear();
  for (auto pool = pools.rbegin(); pool != pools.rend(); ++pool) {
    DOPE_REQUIRE(!pool->empty(), "empty class pool");
    balancers_.push_back(std::make_unique<net::LoadBalancer>(
        net::LbPolicy::kLeastLoaded,
        std::vector<net::Backend*>(pool->begin(), pool->end())));
  }
  dpm_.emplace(std::move(pools), cluster.ladder(), cluster.engine().obs());
}

net::Backend* GradedAntiDopeScheme::route(
    const workload::Request& request) {
  const std::size_t c = classifier_->class_of(request.type);
  net::Backend* b = balancers_[c]->select(request);
  if (b == nullptr && c == 0) {
    // Lightest class may degrade upward into the class-1 pool rather
    // than dropping legitimate traffic; heavy classes never spill down.
    b = balancers_[1]->select(request);
  }
  return b;
}

void GradedAntiDopeScheme::detach() {
  dpm_.reset();
  balancers_.clear();
  classifier_.reset();
  ControlStage::detach();
}

void GradedAntiDopeScheme::on_slot(Time now, Duration slot) {
  dpm_->on_slot(now, slot, *cluster_);
}

}  // namespace dope::antidope
