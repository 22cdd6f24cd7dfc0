#include "server/node.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/audit.hpp"
#include "common/expect.hpp"
#include "obs/hub.hpp"

namespace dope::server {

namespace {

/// Time to wake from the parked (deep sleep) state to serving.
constexpr Duration kWakeLatency = 2 * kSecond;

}  // namespace

ServerNode::ServerNode(sim::Engine& engine, int id,
                       const workload::Catalog& catalog,
                       power::ServerPowerModel model, ServerConfig config,
                       workload::RecordSink sink, int zone)
    : engine_(engine),
      id_(id),
      zone_(zone),
      catalog_(catalog),
      model_(std::move(model)),
      config_(config),
      sink_(std::move(sink)),
      slots_(model_.spec().cores),
      free_mask_((slots_.size() + 63) / 64, 0),
      level_(model_.ladder().max_level()),
      target_level_(level_),
      last_energy_update_(engine.now()) {
  DOPE_REQUIRE(sink_ != nullptr, "server needs a record sink");
  DOPE_REQUIRE(config_.queue_capacity > 0, "queue capacity must be positive");
  if (engine_.obs() != nullptr) spans_ = engine_.obs()->spans();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    free_mask_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  refresh_power();
  publish_key();
}

std::uint32_t ServerNode::state_key() const {
  if (!accepting()) return kOff;
  // A load of 2^32 - 1 requests cannot be held in memory; the clamp only
  // keeps an accepting node's key distinct from kOff.
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(load(), kOff - 1));
}

std::size_t ServerNode::claim_free_slot() {
  // Callers only reach here with active_count_ < cores, so some word
  // always has a set bit and the scan needs no not-found path.
  std::size_t word = 0;
  while (free_mask_[word] == 0) ++word;
  const auto bit =
      static_cast<std::size_t>(std::countr_zero(free_mask_[word]));
  free_mask_[word] &= ~(std::uint64_t{1} << bit);
  return word * 64 + bit;
}

void ServerNode::release_slot(std::size_t slot_index) {
  free_mask_[slot_index / 64] |= std::uint64_t{1} << (slot_index % 64);
}

double ServerNode::slowdown_at(const workload::RequestTypeProfile& profile,
                               power::DvfsLevel level) const {
  const double rel = model_.ladder().relative(level);
  return profile.cpu_bound_fraction / rel +
         (1.0 - profile.cpu_bound_fraction);
}

void ServerNode::span_queue_begin(const workload::Request& request) {
  if (spans_ == nullptr) return;
  obs::Span span;
  span.id = obs::span_id_for(request.id, obs::SpanKind::kQueue);
  span.kind = obs::SpanKind::kQueue;
  span.begin = engine_.now();
  span.source_id = request.source;
  span.url_class = request.type;
  span.server = id_;
  span.zone = zone_;
  spans_->begin(std::move(span));
}

void ServerNode::span_queue_end(const workload::Request& request,
                                const char* outcome) {
  if (spans_ == nullptr) return;
  spans_->end(obs::span_id_for(request.id, obs::SpanKind::kQueue),
              engine_.now(), outcome);
}

void ServerNode::span_service_begin(const workload::Request& request,
                                    std::size_t slot_index,
                                    Watts request_power) {
  if (spans_ == nullptr) return;
  obs::Span span;
  span.id = obs::span_id_for(request.id, obs::SpanKind::kService);
  span.kind = obs::SpanKind::kService;
  span.begin = engine_.now();
  span.source_id = request.source;
  span.url_class = request.type;
  span.power_w = request_power;
  span.server = id_;
  span.slot = static_cast<int>(slot_index);
  span.zone = zone_;
  spans_->begin(std::move(span));
}

void ServerNode::span_service_end(const workload::Request& request,
                                  const char* outcome) {
  if (spans_ == nullptr) return;
  spans_->end(obs::span_id_for(request.id, obs::SpanKind::kService),
              engine_.now(), outcome);
}

void ServerNode::submit(workload::Request&& request) {
  DOPE_REQUIRE(accepting_, "submit on a non-accepting server");
  if constexpr (audit::kEnabled) {
    audit::check_lb_key(engine_.obs(), engine_.now(), id_, lb_key(),
                        state_key());
  }
  // Claim a free slot; otherwise queue (or reject when full).
  if (active_count_ < slots_.size()) {
    begin_service(claim_free_slot(), std::move(request));
    return;
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++counters_.rejected_queue_full;
    emit(request, workload::RequestOutcome::kRejectedQueueFull, 0);
    return;
  }
  span_queue_begin(request);
  queue_.push_back(std::move(request));
  publish_key();
}

void ServerNode::begin_service(std::size_t slot_index,
                               workload::Request&& request) {
  Slot& slot = slots_[slot_index];
  DOPE_ASSERT(!slot.busy);
  const auto& profile = catalog_.type(request.type);
  slot.busy = true;
  slot.request = std::move(request);
  slot.remaining_work =
      static_cast<double>(profile.base_service_time) *
      slot.request.size_factor;
  slot.segment_start = engine_.now();
  slot.segment_slowdown = slowdown_at(profile, level_);
  const auto duration = static_cast<Duration>(
      std::ceil(slot.remaining_work * slot.segment_slowdown));
  slot.completion = engine_.schedule_after(
      std::max<Duration>(duration, 1),
      [this, slot_index] { finish_service(slot_index); });
  ++active_count_;
  publish_key();
  span_service_begin(slot.request, slot_index,
                     model_.request_power(profile.power, level_));
  refresh_power();
}

void ServerNode::finish_service(std::size_t slot_index) {
  Slot& slot = slots_[slot_index];
  DOPE_ASSERT(slot.busy);
  slot.busy = false;
  release_slot(slot_index);
  --active_count_;
  publish_key();
  const Duration latency = engine_.now() - slot.request.arrival;
  ++counters_.completed;
  span_service_end(slot.request, "completed");
  emit(slot.request, workload::RequestOutcome::kCompleted, latency);
  refresh_power();
  drain_queue();
}

void ServerNode::drain_queue() {
  while (active_count_ < slots_.size() && !queue_.empty()) {
    workload::Request next = std::move(queue_.front());
    queue_.pop_front();
    publish_key();
    if (config_.queue_deadline > 0 &&
        engine_.now() - next.arrival > config_.queue_deadline) {
      ++counters_.timed_out;
      span_queue_end(next, "timeout");
      emit(next, workload::RequestOutcome::kTimedOut,
           engine_.now() - next.arrival);
      continue;
    }
    span_queue_end(next, "served");
    begin_service(claim_free_slot(), std::move(next));
  }
}

void ServerNode::request_level(power::DvfsLevel level) {
  DOPE_REQUIRE(level < model_.ladder().levels(), "DVFS level out of range");
  target_level_ = level;
  if (level == level_ && !actuation_pending_) return;
  if (actuation_pending_) {
    // Supersede the in-flight actuation with the newest request.
    engine_.cancel(actuation_event_);
  }
  actuation_pending_ = true;
  actuation_event_ = engine_.schedule_after(
      std::max<Duration>(config_.dvfs_latency, 0), [this] {
        actuation_pending_ = false;
        apply_level(target_level_);
      });
}

void ServerNode::force_level(power::DvfsLevel level) {
  DOPE_REQUIRE(level < model_.ladder().levels(), "DVFS level out of range");
  if (actuation_pending_) {
    engine_.cancel(actuation_event_);
    actuation_pending_ = false;
  }
  target_level_ = level;
  apply_level(level);
}

void ServerNode::apply_level(power::DvfsLevel level) {
  if (level == level_) {
    refresh_power();
    return;
  }
  const Time now = engine_.now();
  // Re-time every in-flight request: bank the work done in the finished
  // segment, then reschedule the remainder at the new speed.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.busy) continue;
    const double elapsed = static_cast<double>(now - slot.segment_start);
    const double work_done = elapsed / slot.segment_slowdown;
    slot.remaining_work = std::max(0.0, slot.remaining_work - work_done);
    engine_.cancel(slot.completion);
    const auto& profile = catalog_.type(slot.request.type);
    slot.segment_start = now;
    slot.segment_slowdown = slowdown_at(profile, level);
    const auto duration = static_cast<Duration>(
        std::ceil(slot.remaining_work * slot.segment_slowdown));
    slot.completion = engine_.schedule_after(
        std::max<Duration>(duration, 1),
        [this, i] { finish_service(i); });
  }
  level_ = level;
  refresh_power();
}

void ServerNode::visit_active(
    common::FunctionRef<void(workload::RequestTypeId)> visitor) const {
  for (const Slot& slot : slots_) {
    if (slot.busy) visitor(slot.request.type);
  }
}

void ServerNode::park() {
  DOPE_REQUIRE(load() == 0, "cannot park a node with in-flight work");
  if (parked_) return;
  if (waking_) {
    engine_.cancel(wake_event_);
    waking_ = false;
  }
  integrate_energy();
  parked_ = true;
  publish_key();
  current_power_ = model_.spec().sleep_power;
}

void ServerNode::unpark() {
  if (!parked_ || waking_) return;
  // Waking burns boot power (modelled as idle at the current level) for
  // the wake latency before the node can serve again.
  integrate_energy();
  parked_ = false;
  waking_ = true;
  publish_key();
  current_power_ = model_.idle_power(level_);
  wake_event_ = engine_.schedule_after(kWakeLatency, [this] {
    waking_ = false;
    publish_key();
    refresh_power();
  });
}

void ServerNode::power_off() {
  if (powered_off_) return;
  integrate_energy();
  if (waking_) {
    engine_.cancel(wake_event_);
    waking_ = false;
  }
  // Everything in flight is lost.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.busy) continue;
    engine_.cancel(slot.completion);
    slot.busy = false;
    release_slot(i);
    --active_count_;
    publish_key();
    span_service_end(slot.request, "outage");
    emit(slot.request, workload::RequestOutcome::kFailedOutage,
         engine_.now() - slot.request.arrival);
  }
  while (!queue_.empty()) {
    span_queue_end(queue_.front(), "outage");
    emit(queue_.front(), workload::RequestOutcome::kFailedOutage,
         engine_.now() - queue_.front().arrival);
    queue_.pop_front();
    publish_key();
  }
  DOPE_ASSERT(active_count_ == 0);
  powered_off_ = true;
  parked_ = false;
  publish_key();
  current_power_ = Watts{0.0};
}

void ServerNode::power_on(Duration boot_time) {
  DOPE_REQUIRE(boot_time >= 0, "boot time must be non-negative");
  if (!powered_off_) return;
  integrate_energy();
  powered_off_ = false;
  waking_ = true;
  publish_key();
  current_power_ = model_.idle_power(level_);  // boot draw
  wake_event_ = engine_.schedule_after(boot_time, [this] {
    waking_ = false;
    publish_key();
    refresh_power();
  });
}

Watts ServerNode::estimate_power_at(power::DvfsLevel level) const {
  if (powered_off_) return Watts{0.0};
  if (parked_) return model_.spec().sleep_power;
  Watts p = model_.idle_power(level);
  for (const Slot& slot : slots_) {
    if (!slot.busy) continue;
    p += model_.request_power(catalog_.type(slot.request.type).power, level);
  }
  return model_.clamp(p);
}

void ServerNode::refresh_power() {
  integrate_energy();
  current_power_ = estimate_power_at(level_);
}

void ServerNode::integrate_energy() const {
  const Time now = engine_.now();
  if (now > last_energy_update_) {
    energy_ += energy_of(current_power_, now - last_energy_update_);
    last_energy_update_ = now;
  }
}

Joules ServerNode::energy() const {
  integrate_energy();
  return energy_;
}

void ServerNode::emit(const workload::Request& request,
                      workload::RequestOutcome outcome, Duration latency) {
  workload::RequestRecord record;
  record.request = request;
  record.outcome = outcome;
  record.finish = engine_.now();
  record.latency = latency;
  record.server = workload::ServerRef{zone_, id_};
  sink_(record);
}

}  // namespace dope::server
