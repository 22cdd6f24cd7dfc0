#include "cluster/data_plane.hpp"

#include <string>
#include <utility>

#include "cluster/cluster.hpp"
#include "cluster/control_plane.hpp"
#include "common/expect.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"

namespace dope::cluster {

DataPlane::DataPlane(Cluster& owner, const ClusterConfig& config)
    : owner_(owner), zone_(config.zone) {
  DOPE_REQUIRE(config.num_servers > 0, "cluster needs at least one server");

  sim::Engine& engine = owner_.engine();
  auto sink = [this](const workload::RequestRecord& r) {
    owner_.on_record(r);
  };
  nodes_.reserve(config.num_servers);
  for (std::size_t i = 0; i < config.num_servers; ++i) {
    nodes_.push_back(std::make_unique<server::ServerNode>(
        engine, static_cast<int>(i), owner_.catalog(),
        power::ServerPowerModel(config.server_spec, config.ladder),
        config.server_config, sink, zone_));
  }

  if (config.network_switch.has_value()) {
    switch_.emplace(*config.network_switch);
  }
  if (config.firewall.has_value()) {
    firewall_.emplace(engine, *config.firewall, zone_);
  }

  std::vector<net::Backend*> pool;
  pool.reserve(nodes_.size());
  for (auto& n : nodes_) pool.push_back(n.get());
  balancer_ =
      std::make_unique<net::LoadBalancer>(config.lb_policy, std::move(pool));
}

void DataPlane::bind_obs(obs::Hub* hub) {
  hub_ = hub;
  if (hub_ == nullptr) return;
  auto& reg = hub_->registry();
  obs::Labels scheme_labels{{"pool", "scheme"}};
  obs::Labels default_labels{{"pool", "default"}};
  if (zone_ >= 0) {
    scheme_labels.emplace_back("zone", std::to_string(zone_));
    default_labels.emplace_back("zone", std::to_string(zone_));
  }
  obs_forwarded_scheme_ = &reg.counter("net.forwarded", scheme_labels);
  obs_forwarded_default_ = &reg.counter("net.forwarded", default_labels);
  if (obs::TimeSeriesStore* ts = hub_->timeseries(); ts != nullptr) {
    ts_queue_depth_ = &ts->series(zone_name("fleet.queue_depth", zone_));
    ts_active_slots_ =
        &ts->series(zone_name("fleet.active_slots", zone_));
    if (firewall_) {
      ts_firewall_bans_ =
          &ts->series(zone_name("firewall.bans", zone_));
    }
  }
}

void DataPlane::bind_balancer_obs(obs::Hub* hub) {
  if (hub == nullptr) return;
  balancer_->bind_obs(hub, "default", zone_);
  spans_ = hub->spans();
  balancer_->bind_spans(&owner_.engine(), spans_, "default", zone_);
}

void DataPlane::sample_timeseries(Time now) {
  if (ts_queue_depth_ == nullptr) return;
  std::size_t queued = 0;
  std::size_t active = 0;
  for (const auto& n : nodes_) {
    queued += n->queue_length();
    active += n->active_count();
  }
  ts_queue_depth_->sample(now, static_cast<double>(queued));
  ts_active_slots_->sample(now, static_cast<double>(active));
  if (ts_firewall_bans_ != nullptr) {
    ts_firewall_bans_->sample(
        now, static_cast<double>(firewall_->total_bans()));
  }
}

std::vector<server::ServerNode*> DataPlane::servers() {
  std::vector<server::ServerNode*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

server::ServerNode& DataPlane::server(std::size_t i) {
  DOPE_REQUIRE(i < nodes_.size(), "server index out of range");
  return *nodes_[i];
}

Watts DataPlane::total_power() const {
  Watts p{0.0};
  for (const auto& n : nodes_) p += n->current_power();
  return p;
}

Joules DataPlane::total_energy() const {
  Joules e{0.0};
  for (const auto& n : nodes_) e += n->energy();
  return e;
}

void DataPlane::power_off_all() {
  for (auto& node : nodes_) node->power_off();
}

void DataPlane::power_on_all(Duration reboot) {
  for (auto& node : nodes_) node->power_on(reboot);
}

void DataPlane::trace_forwarded(const workload::Request& request, int server,
                                const char* pool) {
  obs::TraceEvent e;
  e.t = owner_.engine().now();
  e.type = obs::EventType::kRequestForwarded;
  e.source = "edge";
  e.num.emplace_back("server", server);
  e.num.emplace_back("url_class", request.type);
  e.num.emplace_back("source_id", request.source);
  if (zone_ >= 0) e.num.emplace_back("zone", zone_);
  e.str.emplace_back("pool", pool);
  hub_->event(std::move(e));
}

void DataPlane::trace_dropped(const workload::Request& request,
                              const char* reason) {
  obs::TraceEvent e;
  e.t = owner_.engine().now();
  e.type = obs::EventType::kRequestDropped;
  e.source = "edge";
  e.num.emplace_back("url_class", request.type);
  e.num.emplace_back("source_id", request.source);
  if (zone_ >= 0) e.num.emplace_back("zone", zone_);
  e.str.emplace_back("reason", reason);
  hub_->event(std::move(e));
}

void DataPlane::ingest(workload::Request&& request) {
  sim::Engine& engine = owner_.engine();
  if (spans_ != nullptr) {
    // Root span: opens at edge arrival, closes in the owner's on_record
    // with the terminal outcome. Child spans (firewall, LB, queue,
    // service) all point back at this id.
    obs::Span span;
    span.id = obs::span_id_for(request.id, obs::SpanKind::kRequest);
    span.kind = obs::SpanKind::kRequest;
    span.begin = engine.now();
    span.source_id = request.source;
    span.url_class = request.type;
    span.zone = zone_;
    span.label = request.ground_truth_attack ? "attack" : "normal";
    spans_->begin(std::move(span));
  }
  // The wire comes first: a saturated switch drops packets before any
  // defense or server sees them (network-layer DoS).
  if (switch_ && !switch_->forward(engine.now())) {
    drop(std::move(request), workload::RequestOutcome::kDroppedNetwork);
    return;
  }
  if (firewall_ && !firewall_->admit(request)) {
    drop(std::move(request), workload::RequestOutcome::kBlockedByFirewall);
    return;
  }
  ControlPlane& control = owner_.control();
  if (!control.admit(request)) {
    drop(std::move(request), workload::RequestOutcome::kDroppedByLimit);
    return;
  }
  net::Backend* target = control.route(request);
  if (target != nullptr) {
    if (hub_ != nullptr) {
      obs_forwarded_scheme_->inc();
      trace_forwarded(request, target->backend_id(), "scheme");
    }
    target->submit(std::move(request));
    return;
  }
  net::Backend* backend = balancer_->select(request);
  if (backend == nullptr) {
    // No backend accepted; surfaces as a queue-full rejection at the edge.
    drop(std::move(request), workload::RequestOutcome::kRejectedQueueFull);
    return;
  }
  if (hub_ != nullptr) {
    obs_forwarded_default_->inc();
    trace_forwarded(request, backend->backend_id(), "default");
  }
  backend->submit(std::move(request));
}

void DataPlane::drop(workload::Request&& request,
                     workload::RequestOutcome outcome) {
  if (hub_ != nullptr) trace_dropped(request, outcome_label(outcome));
  workload::RequestRecord record;
  record.request = std::move(request);
  record.outcome = outcome;
  record.finish = owner_.engine().now();
  record.latency = 0;
  owner_.on_record(record);
}

}  // namespace dope::cluster
