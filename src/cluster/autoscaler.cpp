#include "cluster/autoscaler.hpp"

#include <algorithm>

#include "cluster/cluster.hpp"
#include "common/expect.hpp"

namespace dope::cluster {

namespace {

/// Wake nodes when busy-core utilisation of the serving set exceeds
/// this...
constexpr double kScaleUpUtilization = 0.75;
/// ...and drain nodes when it falls below this (hysteresis band).
constexpr double kScaleDownUtilization = 0.35;
/// Controller period.
constexpr Duration kPeriod = 5 * kSecond;

}  // namespace

AutoScaler::AutoScaler(Cluster& cluster, AutoScalerConfig config)
    : cluster_(&cluster), config_(config) {
  DOPE_REQUIRE(config_.min_active >= 1, "need at least one active node");
  DOPE_REQUIRE(config_.step >= 1, "step must be at least one node");
  task_ = cluster.engine().every(kPeriod, [this] { tick(); });
}

AutoScaler::~AutoScaler() { task_.stop(); }

std::size_t AutoScaler::serving_count() const {
  std::size_t n = 0;
  for (auto* node : cluster_->servers()) {
    if (node->accepting()) ++n;
  }
  return n;
}

std::size_t AutoScaler::parked_count() const {
  std::size_t n = 0;
  for (auto* node : cluster_->servers()) {
    if (node->parked()) ++n;
  }
  return n;
}

double AutoScaler::utilization() const {
  unsigned busy = 0;
  unsigned capacity = 0;
  for (auto* node : cluster_->servers()) {
    if (node->parked()) continue;
    busy += node->active_count();
    capacity += node->cores();
  }
  // dope-lint: allow(float-eq) — `capacity` is an unsigned core count.
  return capacity == 0
             ? 0.0
             : static_cast<double>(busy) / static_cast<double>(capacity);
}

void AutoScaler::tick() {
  auto nodes = cluster_->servers();

  // Finish pending drains: park nodes whose work has run out.
  for (auto it = draining_.begin(); it != draining_.end();) {
    auto* node = nodes[static_cast<std::size_t>(*it)];
    if (node->load() == 0) {
      node->park();
      // Restore the manual flag now; `parked()` keeps the node out of
      // rotation, and a later unpark must find it willing to serve.
      node->set_accepting(true);
      it = draining_.erase(it);
    } else {
      ++it;
    }
  }

  const double util = utilization();
  if (util > kScaleUpUtilization) {
    // Cheapest capacity first: cancel in-progress drains...
    unsigned woken = 0;
    while (!draining_.empty() && woken < config_.step) {
      auto* node = nodes[static_cast<std::size_t>(draining_.back())];
      node->set_accepting(true);
      draining_.pop_back();
      ++woken;
      ++scale_ups_;
    }
    // ...then wake parked nodes.
    for (auto* node : nodes) {
      if (woken >= config_.step) break;
      if (node->parked()) {
        node->unpark();
        ++woken;
        ++scale_ups_;
      }
    }
    return;
  }

  if (util < kScaleDownUtilization) {
    // Drain the highest-index serving nodes, keeping the minimum fleet.
    const std::size_t serving = serving_count();
    if (serving <= config_.min_active) return;
    const std::size_t can_drain =
        std::min<std::size_t>(config_.step, serving - config_.min_active);
    std::size_t drained = 0;
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
      if (drained >= can_drain) break;
      auto* node = *it;
      if (!node->accepting() || node->parked() || node->waking()) continue;
      node->set_accepting(false);
      draining_.push_back(node->backend_id());
      ++drained;
      ++scale_downs_;
    }
  }
}

}  // namespace dope::cluster
