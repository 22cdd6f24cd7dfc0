#include "cluster/cluster.hpp"

#include <string>
#include <utility>

#include "common/audit.hpp"
#include "common/expect.hpp"

namespace dope::cluster {

const char* outcome_label(workload::RequestOutcome outcome) {
  switch (outcome) {
    case workload::RequestOutcome::kCompleted: return "completed";
    case workload::RequestOutcome::kDroppedByLimit: return "limit";
    case workload::RequestOutcome::kBlockedByFirewall: return "firewall";
    case workload::RequestOutcome::kRejectedQueueFull: return "queue_full";
    case workload::RequestOutcome::kTimedOut: return "timeout";
    case workload::RequestOutcome::kFailedOutage: return "outage";
    case workload::RequestOutcome::kDroppedNetwork: return "network";
  }
  return "?";
}

std::string zone_name(const char* base, int zone) {
  if (zone < 0) return base;
  return std::string(base) + ".zone" + std::to_string(zone);
}

Cluster::Cluster(sim::Engine& engine, const workload::Catalog& catalog,
                 ClusterConfig config)
    : engine_(engine),
      catalog_(catalog),
      config_((validate(config), std::move(config))),
      data_(*this, config_),
      power_(*this, data_, config_),
      control_(*this) {
  bind_obs();

  slot_task_ =
      engine_.every(config_.slot, [this] { management_slot(); });
}

void Cluster::validate(const ClusterConfig& config) {
  DOPE_REQUIRE(config.num_servers > 0, "cluster needs at least one server");
  DOPE_REQUIRE(config.slot > 0, "management slot must be positive");
}

void Cluster::bind_obs() {
  hub_ = engine_.obs();
  if (hub_ == nullptr) return;
  auto& reg = hub_->registry();
  for (int i = 0; i < 7; ++i) {
    obs::Labels labels{
        {"outcome", outcome_label(static_cast<workload::RequestOutcome>(i))}};
    if (config_.zone >= 0) {
      labels.emplace_back("zone", std::to_string(config_.zone));
    }
    obs_outcome_[i] = &reg.counter("requests.outcome", labels);
  }
  // Registration order mirrors the pre-plane monolith so the metrics
  // JSON (creation-ordered) stays byte-identical: outcome counters, edge
  // forwarding counters, electrical instruments, then the balancer.
  data_.bind_obs(hub_);
  power_.bind_obs(hub_);
  data_.bind_balancer_obs(hub_);
  spans_ = hub_->spans();
}

Cluster::~Cluster() { slot_task_.stop(); }

void Cluster::install_scheme(std::unique_ptr<ControlStage> scheme) {
  DOPE_REQUIRE(scheme != nullptr, "scheme must not be null");
  control_.install(std::move(scheme));
}

workload::RequestSink Cluster::edge_sink() {
  return [this](workload::Request&& r) { ingest(std::move(r)); };
}

void Cluster::add_record_listener(workload::RecordSink listener) {
  DOPE_REQUIRE(listener != nullptr, "listener must be callable");
  listeners_.push_back(std::move(listener));
}

void Cluster::run_for(Duration d) {
  DOPE_REQUIRE(d >= 0, "duration must be non-negative");
  engine_.run_until(engine_.now() + d);
}

void Cluster::on_record(const workload::RequestRecord& record) {
  if constexpr (audit::kEnabled) {
    audit::check_non_negative(hub_, record.finish, "request.latency_us",
                              static_cast<double>(record.latency));
  }
  if (hub_ != nullptr) {
    obs_outcome_[static_cast<int>(record.outcome)]->inc();
  }
  if (spans_ != nullptr) {
    spans_->end(
        obs::span_id_for(record.request.id, obs::SpanKind::kRequest),
        record.finish, outcome_label(record.outcome));
  }
  request_metrics_.record(record);
  for (auto& l : listeners_) l(record);
}

void Cluster::management_slot() {
  const Time now = engine_.now();
  // Measurement before policy: the data plane samples the serving-side
  // series, the power plane settles the finished slot's books (and may
  // trip the breaker — the samples must land first so an incident
  // capture sees this slot), then every control stage acts on what it
  // measured, in installation order.
  data_.sample_timeseries(now);
  power_.run_slot(now);
  control_.on_slot(now, config_.slot);
}

}  // namespace dope::cluster
