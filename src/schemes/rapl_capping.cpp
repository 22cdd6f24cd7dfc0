#include "schemes/rapl_capping.hpp"

#include <algorithm>
#include <vector>

namespace dope::schemes {

namespace {

/// Caps are lifted when demand falls below this fraction of the budget
/// (hysteresis).
constexpr double kReleaseMargin = 0.95;

}  // namespace

void RaplCappingScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  for (auto* node : cluster.data().servers()) {
    rapl_.push_back(std::make_unique<server::RaplInterface>(*node));
  }
}

void RaplCappingScheme::on_slot(Time now, Duration slot) {
  (void)now;
  (void)slot;
  const Watts budget = cluster_->power().budget();
  const Watts demand = cluster_->data().total_power();

  if (demand > budget) {
    capping_ = true;
    // Guarantee every node its idle power, then split the remaining
    // budget proportionally to each node's *active* draw: idle nodes keep
    // their frequency, hot nodes absorb the entire reduction.
    const auto max_level = cluster_->ladder().max_level();
    Watts idle_total{0.0};
    Watts active_total{0.0};
    std::vector<Watts> idle(rapl_.size()), active(rapl_.size());
    for (std::size_t i = 0; i < rapl_.size(); ++i) {
      idle[i] = rapl_[i]->node().power_model().idle_power(max_level);
      active[i] = std::max(
          Watts{0.0},
          rapl_[i]->node().estimate_power_at(max_level) - idle[i]);
      idle_total += idle[i];
      active_total += active[i];
    }
    const Watts spare = budget - idle_total;
    for (std::size_t i = 0; i < rapl_.size(); ++i) {
      Watts slice;
      if (spare <= Watts{0.0}) {
        // Budget below the idle floor: split evenly; RAPL floors apply.
        slice = budget / static_cast<double>(rapl_.size());
      } else if (active_total <= Watts{1e-9}) {
        slice = idle[i] + spare / static_cast<double>(rapl_.size());
      } else {
        slice = idle[i] + spare * active[i] / active_total;
      }
      rapl_[i]->set_cap(std::max(Watts{1.0}, slice));
    }
    return;
  }
  if (capping_ && demand <= kReleaseMargin * budget) {
    capping_ = false;
    for (auto& rapl : rapl_) rapl->clear_cap();
  } else if (capping_) {
    // Still near the edge: keep caps but refresh against the current
    // active sets.
    for (auto& rapl : rapl_) rapl->enforce();
  }
}

}  // namespace dope::schemes
