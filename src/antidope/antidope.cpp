#include "antidope/antidope.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "obs/hub.hpp"

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
  const auto split = nodes.begin() + static_cast<long>(k);

  SuspectList suspects =
      config_.suspect_list.has_value()
          ? *config_.suspect_list
          : SuspectList::from_catalog(cluster.catalog(),
                                      config_.suspect_power_threshold);

  std::vector<net::Backend*> suspect_pool(nodes.begin(), split);
  std::vector<net::Backend*> innocent_pool(split, nodes.end());
  if (config_.online_learning) {
    classifier_ = std::make_unique<OnlineClassifier>(
        cluster.catalog().size(), suspects);
  }
  router_ = std::make_unique<PdfRouter>(std::move(suspects),
                                        std::move(suspect_pool),
                                        std::move(innocent_pool));

  hub_ = cluster.engine().obs();
  dpm_.emplace(std::vector<std::vector<server::ServerNode*>>{
                   {nodes.begin(), split}, {split, nodes.end()}},
               cluster.ladder(), hub_);
  if (hub_ != nullptr) {
    auto& reg = hub_->registry();
    obs_tl_iterations_ = &reg.counter("dpm.tl_iterations");
    obs_throttle_slots_ = &reg.counter("dpm.throttle_slots");
    router_->bind_spans(&cluster.engine(), hub_->spans());
  }
}

void AntiDopeScheme::trace_throttle(Time now, const DpmSlot& slot) const {
  obs::TraceEvent e;
  e.t = now;
  e.type = obs::EventType::kThrottleApplied;
  e.source = "antidope";
  e.num.emplace_back("deficit_w", slot.deficit.value());
  e.num.emplace_back("suspect_level", suspect_level());
  e.num.emplace_back("innocent_level", innocent_level());
  e.num.emplace_back("battery_w", slot.battery.value());
  e.num.emplace_back("tl_iterations",
                     static_cast<double>(slot.tl_iterations));
  e.num.emplace_back("throttled_nodes",
                     static_cast<double>(slot.throttled_nodes));
  e.num.emplace_back("final_power_w", slot.projected.value());
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
  const DpmSlot result = dpm_->on_slot(now, slot, *cluster_);
  last_battery_power_ = result.battery;
  if (hub_ != nullptr && result.deficit > Watts{0.0}) {
    obs_tl_iterations_->inc(static_cast<double>(result.tl_iterations));
    obs_throttle_slots_->inc();
    trace_throttle(now, result);
  }
}

}  // namespace dope::antidope
