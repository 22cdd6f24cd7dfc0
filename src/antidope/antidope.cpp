#include "antidope/antidope.hpp"

#include <algorithm>
#include <utility>

#include "antidope/dpm.hpp"

#include "common/audit.hpp"
#include "common/expect.hpp"
#include "obs/hub.hpp"
#include "schemes/util.hpp"

namespace dope::antidope {

AntiDopeScheme::AntiDopeScheme(AntiDopeConfig config)
    : config_(std::move(config)) {
  DOPE_REQUIRE(config_.suspect_power_threshold > Watts{0.0},
               "suspect threshold must be positive");
  DOPE_REQUIRE(config_.suspect_pool_fraction > 0.0 &&
                   config_.suspect_pool_fraction < 1.0,
               "suspect pool fraction must be in (0, 1)");
}

void AntiDopeScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  auto nodes = cluster.data().servers();
  DOPE_REQUIRE(nodes.size() >= 2,
               "Anti-DOPE needs at least two servers to form pools");

  // Partition the fleet: the first k nodes become the suspect pool.
  const auto k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          static_cast<double>(nodes.size()) * config_.suspect_pool_fraction +
          0.5),
      1, nodes.size() - 1);
  suspect_nodes_.assign(nodes.begin(), nodes.begin() + static_cast<long>(k));
  innocent_nodes_.assign(nodes.begin() + static_cast<long>(k), nodes.end());

  SuspectList suspects =
      config_.suspect_list.has_value()
          ? *config_.suspect_list
          : SuspectList::from_catalog(cluster.catalog(),
                                      config_.suspect_power_threshold);

  std::vector<net::Backend*> suspect_pool(suspect_nodes_.begin(),
                                          suspect_nodes_.end());
  std::vector<net::Backend*> innocent_pool(innocent_nodes_.begin(),
                                           innocent_nodes_.end());
  if (config_.online_learning) {
    classifier_ = std::make_unique<OnlineClassifier>(
        cluster.catalog().size(), suspects);
  }
  router_ = std::make_unique<PdfRouter>(std::move(suspects),
                                        std::move(suspect_pool),
                                        std::move(innocent_pool));

  suspect_target_ = cluster.ladder().max_level();
  innocent_target_ = cluster.ladder().max_level();

  hub_ = cluster.engine().obs();
  if (hub_ != nullptr) {
    auto& reg = hub_->registry();
    obs_tl_iterations_ = &reg.counter("dpm.tl_iterations");
    obs_throttle_slots_ = &reg.counter("dpm.throttle_slots");
    router_->bind_spans(&cluster.engine(), hub_->spans());
  }
}

void AntiDopeScheme::detach() {
  // Every pointer below reaches into the old cluster's fleet or hub;
  // dropping them here is what makes re-attaching to a second cluster
  // safe (the pools and router are rebuilt in attach).
  router_.reset();
  classifier_.reset();
  suspect_nodes_.clear();
  innocent_nodes_.clear();
  hub_ = nullptr;
  obs_tl_iterations_ = nullptr;
  obs_throttle_slots_ = nullptr;
  ControlStage::detach();
}

void AntiDopeScheme::trace_throttle(Time now, Watts deficit,
                                    const char* mode,
                                    const SolveStats* stats) const {
  if (hub_ == nullptr) return;
  obs::TraceEvent e;
  e.t = now;
  e.type = obs::EventType::kThrottleApplied;
  e.source = "antidope";
  e.num.emplace_back("deficit_w", deficit.value());
  e.num.emplace_back("suspect_level", suspect_target_);
  e.num.emplace_back("innocent_level", innocent_target_);
  e.num.emplace_back("battery_w", last_battery_power_.value());
  if (stats != nullptr) {
    e.num.emplace_back("tl_iterations",
                       static_cast<double>(stats->iterations));
    e.num.emplace_back("throttled_nodes",
                       static_cast<double>(stats->throttled_nodes));
    e.num.emplace_back("final_power_w", stats->final_power.value());
  }
  e.str.emplace_back("mode", mode);
  hub_->event(std::move(e));
}

net::Backend* AntiDopeScheme::route(const workload::Request& request) {
  DOPE_ASSERT(router_ != nullptr);
  return router_->route(request);
}

void AntiDopeScheme::on_slot(Time now, Duration slot) {
  if (classifier_) {
    // Fold this slot's node telemetry into the online belief and keep the
    // router's classification current.
    for (auto* node : cluster_->data().servers()) classifier_->observe(*node);
    router_->update_suspects(classifier_->suspects());
  }
  const Watts budget = cluster_->power().budget();
  const Watts demand = cluster_->data().total_power();
  const auto& ladder = cluster_->ladder();
  // Null when the cluster has none: DVFS alone then closes the gap.
  battery::Battery* battery = cluster_->power().battery();

  last_battery_power_ = Watts{0.0};
  const Watts deficit = demand - budget;

  if (deficit > Watts{0.0}) {
    // --- Algorithm 1: differentiated power management ---
    // Step 1: decide the throttling configuration. Reclaim power from the
    // suspect pool first: find the highest suspect level that fits under
    // what remains of the budget after the innocent pool's draw.
    const Watts innocent_now = schemes::estimate_power_at_uniform(
        innocent_nodes_, innocent_target_);
    const Watts suspect_allowance =
        std::max(Watts{0.0}, budget - innocent_now);
    if (config_.per_node_throttling) {
      // Heterogeneous TL(p,q): each suspect node gets its own level.
      SolveStats stats;
      const auto assignment =
          solve_throttling(suspect_nodes_, ladder, suspect_allowance,
                           suspect_target_, &stats);
      apply_assignment(suspect_nodes_, assignment);
      if constexpr (audit::kEnabled) {
        const bool all_at_floor = std::all_of(
            assignment.begin(), assignment.end(),
            [&](power::DvfsLevel l) { return l == ladder.min_level(); });
        audit::check_budget_feasible(hub_, now, stats.final_power,
                                     suspect_allowance, all_at_floor);
      }
      suspect_target_ = *std::min_element(assignment.begin(),
                                          assignment.end());
      if (battery != nullptr) {
        last_battery_power_ = battery->discharge(deficit, slot);
      }
      if (hub_ != nullptr) {
        obs_tl_iterations_->inc(static_cast<double>(stats.iterations));
        obs_throttle_slots_->inc();
        trace_throttle(now, deficit, "tl", &stats);
      }
      return;
    }
    power::DvfsLevel new_suspect = schemes::find_uniform_level(
        suspect_nodes_, ladder, suspect_allowance, suspect_target_);

    // Step 2 (last resort): if zeroing in on the suspect pool cannot close
    // the gap even at the ladder floor, the innocent pool must give too.
    const Watts suspect_floor = schemes::estimate_power_at_uniform(
        suspect_nodes_, ladder.min_level());
    if (new_suspect == ladder.min_level() &&
        suspect_floor > suspect_allowance) {
      const Watts innocent_allowance =
          std::max(Watts{0.0}, budget - suspect_floor);
      innocent_target_ = schemes::find_uniform_level(
          innocent_nodes_, ladder, innocent_allowance, innocent_target_);
      schemes::request_uniform_level(innocent_nodes_, innocent_target_);
    }
    if (new_suspect != suspect_target_) {
      suspect_target_ = new_suspect;
      schemes::request_uniform_level(suspect_nodes_, suspect_target_);
    }

    // Step 3: the battery bridges this slot — DVFS actuation has latency
    // and the demand reduction only lands next slot; discharging keeps the
    // facility inside its budget in the meantime ("transition medium").
    if (battery != nullptr) {
      last_battery_power_ = battery->discharge(deficit, slot);
    }
    if (hub_ != nullptr) {
      obs_throttle_slots_->inc();
      trace_throttle(now, deficit, "uniform", nullptr);
    }
    return;
  }

  // Headroom path: restore the innocent pool first, then the suspect pool
  // one step at a time, then recharge the battery with what is left.
  Watts headroom = -deficit;
  if (innocent_target_ < ladder.max_level()) {
    const power::DvfsLevel next = innocent_target_ + 1;
    const Watts projected =
        schemes::estimate_power_at_uniform(innocent_nodes_, next) +
        schemes::estimate_power_at_uniform(suspect_nodes_, suspect_target_);
    if (projected <= budget * (1.0 - schemes::kRaiseHeadroom)) {
      innocent_target_ = next;
      schemes::request_uniform_level(innocent_nodes_, innocent_target_);
      headroom = std::max(Watts{0.0}, budget - projected);
    }
  } else if (suspect_target_ < ladder.max_level()) {
    const power::DvfsLevel next = suspect_target_ + 1;
    const Watts projected =
        schemes::estimate_power_at_uniform(suspect_nodes_, next) +
        schemes::estimate_power_at_uniform(innocent_nodes_,
                                           innocent_target_);
    if (projected <= budget * (1.0 - schemes::kRaiseHeadroom)) {
      suspect_target_ = next;
      schemes::request_uniform_level(suspect_nodes_, suspect_target_);
      headroom = std::max(Watts{0.0}, budget - projected);
    }
  }
  if (battery != nullptr && headroom > Watts{0.0} && !battery->full()) {
    battery->charge(headroom, slot);
  }
}

}  // namespace dope::antidope
