#include "schemes/hierarchical.hpp"

#include <algorithm>
#include <utility>

#include "obs/hub.hpp"

namespace dope::schemes {

namespace {

/// Fraction of a rack's allowance that must stay free before the rack's
/// frequency is raised one step.
constexpr double kHeadroomMargin = 0.05;
/// Consecutive clean slots a rack must show before that raise (prevents
/// the raise/violate limit cycle under a saturating load).
constexpr unsigned kRecoveryDebounce = 5;

}  // namespace

HierarchicalCappingScheme::HierarchicalCappingScheme(
    power::PowerTopology topology)
    : topology_(std::move(topology)) {}

void HierarchicalCappingScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  topology_.validate(cluster.data().num_servers());
  auto nodes = cluster.data().servers();
  for (const auto& pdu : topology_.pdus) {
    std::vector<server::ServerNode*> rack;
    for (const std::size_t s : pdu.servers) rack.push_back(nodes[s]);
    rack_nodes_.push_back(std::move(rack));
    rack_target_.push_back(cluster.ladder().max_level());
    rack_clean_slots_.push_back(0);
  }
  hub_ = cluster.engine().obs();
  if (hub_ != nullptr) {
    auto& reg = hub_->registry();
    obs_facility_violations_ =
        &reg.counter("power.level_violation", {{"level", "facility"}});
    obs_rack_violations_ =
        &reg.counter("power.level_violation", {{"level", "pdu"}});
  }
}

void HierarchicalCappingScheme::on_slot(Time now, Duration slot) {
  (void)slot;
  const auto& ladder = cluster_->ladder();
  auto nodes = cluster_->data().servers();
  std::vector<Watts> per_server;
  per_server.reserve(nodes.size());
  for (auto* node : nodes) per_server.push_back(node->current_power());
  last_load_ = power::evaluate_hierarchy(topology_, per_server);

  const bool facility_hot = last_load_.facility.violated();
  if (last_load_.rack_only_violation()) ++rack_interventions_;
  if (facility_hot && hub_ != nullptr) {
    obs_facility_violations_->inc();
    obs::TraceEvent e;
    e.t = now;
    e.type = obs::EventType::kLevelViolation;
    e.source = "hierarchy";
    e.num.emplace_back("load_w", last_load_.facility.load.value());
    e.num.emplace_back("rating_w", last_load_.facility.rating.value());
    e.str.emplace_back("level", "facility");
    hub_->event(std::move(e));
  }

  for (std::size_t p = 0; p < rack_nodes_.size(); ++p) {
    const auto& level_load = last_load_.pdus[p];
    // A rack must satisfy both its own PDU rating and its proportional
    // share of the facility rating when the feed itself is hot.
    Watts allowance = level_load.rating;
    if (facility_hot) {
      const double share =
          level_load.load /
          std::max(Watts{1e-9}, last_load_.facility.load);
      allowance = std::min(allowance,
                           share * topology_.facility_rating);
    }
    if (level_load.load > allowance) {
      rack_clean_slots_[p] = 0;
      if (hub_ != nullptr) {
        obs_rack_violations_->inc();
        obs::TraceEvent e;
        e.t = now;
        e.type = obs::EventType::kLevelViolation;
        e.source = "hierarchy";
        e.num.emplace_back("pdu", static_cast<double>(p));
        e.num.emplace_back("load_w", level_load.load.value());
        e.num.emplace_back("allowance_w", allowance.value());
        e.str.emplace_back("level", "pdu");
        hub_->event(std::move(e));
      }
      const auto level = find_uniform_level(rack_nodes_[p], ladder,
                                            allowance, rack_target_[p]);
      if (level != rack_target_[p] || level == ladder.min_level()) {
        rack_target_[p] = level;
        request_uniform_level(rack_nodes_[p], rack_target_[p]);
      }
      continue;
    }
    // Recovery: one step per slot within this rack's own headroom, only
    // after a debounced streak of clean slots.
    ++rack_clean_slots_[p];
    if (rack_target_[p] < ladder.max_level() &&
        rack_clean_slots_[p] >= kRecoveryDebounce) {
      const auto next = rack_target_[p] + 1;
      const Watts projected =
          estimate_power_at_uniform(rack_nodes_[p], next);
      if (projected <= allowance * (1.0 - kHeadroomMargin)) {
        rack_target_[p] = next;
        request_uniform_level(rack_nodes_[p], rack_target_[p]);
        rack_clean_slots_[p] = 0;
      }
    }
  }
}

}  // namespace dope::schemes
