// Compute node (leaf server) model.
//
// A node serves up to `cores` requests concurrently from a bounded FCFS
// queue. Service progress is *work-based*: a request carries its remaining
// work in "microseconds at f_max" and progresses at a speed set by the
// current DVFS level, so frequency changes mid-service stretch or shrink
// the remaining time exactly (work-conserving DVFS).
//
// Electrical power is piecewise constant between events; the node
// integrates energy exactly at every power transition, so per-run joules
// are event-accurate rather than sampled.
//
// DVFS changes go through `request_level`, which applies after the
// configured actuation latency — the "booting delay of DVFS" the paper
// blames for battery draw at attack transitions (Fig. 18).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/inline_function.hpp"
#include "common/units.hpp"
#include "net/backend.hpp"
#include "power/power_model.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"
#include "workload/request.hpp"

namespace dope::obs {
class SpanTracer;
}  // namespace dope::obs

namespace dope::server {

/// Node-level tunables.
struct ServerConfig {
  /// Maximum queued (not yet serving) requests; beyond this, reject.
  std::size_t queue_capacity = 512;
  /// Requests that waited longer than this in the queue are abandoned
  /// (clients give up); 0 disables timeouts.
  Duration queue_deadline = 4 * kSecond;
  /// Delay between a DVFS level request and it taking effect.
  Duration dvfs_latency = millis(20.0);
};

/// Running counters exposed for tests and metrics.
struct ServerCounters {
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t timed_out = 0;
};

/// A simulated leaf server; implements the NLB's Backend interface.
class ServerNode final : public net::Backend {
 public:
  /// `zone` stamps every record and span the node emits; -1 (standalone
  /// cluster) suppresses the field entirely.
  ServerNode(sim::Engine& engine, int id, const workload::Catalog& catalog,
             power::ServerPowerModel model, ServerConfig config,
             workload::RecordSink sink, int zone = -1);

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  // --- net::Backend ---
  int backend_id() const override { return id_; }
  void submit(workload::Request&& request) override;

  /// Requests currently queued plus in service.
  std::size_t load() const { return queue_.size() + active_count_; }
  /// False when the node refuses new work (drained / parked / waking /
  /// powered off). The node republishes `lb_key()` after every change to
  /// this or to `load()`.
  bool accepting() const {
    return accepting_ && !parked_ && !waking_ && !powered_off_;
  }

  // --- DVFS control ---
  /// Currently applied level.
  power::DvfsLevel level() const { return level_; }
  /// Level that will be in force once any pending actuation lands.
  power::DvfsLevel target_level() const { return target_level_; }
  /// Requests a level change; takes effect after `dvfs_latency`.
  void request_level(power::DvfsLevel level);
  /// Applies a level immediately (initialisation and tests).
  void force_level(power::DvfsLevel level);

  // --- power/energy introspection ---
  /// Instantaneous electrical power right now.
  Watts current_power() const { return current_power_; }
  /// Power this node would draw at `level` with its current active set
  /// (the estimator schemes use to search throttling configurations).
  Watts estimate_power_at(power::DvfsLevel level) const;
  /// Exact integrated energy consumed so far.
  Joules energy() const;
  /// Nameplate rating of this node.
  Watts nameplate() const { return model_.spec().nameplate; }
  const power::ServerPowerModel& power_model() const { return model_; }

  /// Visits the URL class of every request currently in service — the
  /// telemetry a node-local agent legitimately has (it knows what it is
  /// executing). Used by online power classification. Visits slots in
  /// index order (deterministic).
  void visit_active(
      common::FunctionRef<void(workload::RequestTypeId)> visitor) const;

  // --- state ---
  std::size_t queue_length() const { return queue_.size(); }
  unsigned active_count() const { return active_count_; }
  unsigned cores() const { return model_.spec().cores; }
  const ServerCounters& counters() const { return counters_; }
  void set_accepting(bool accepting) {
    accepting_ = accepting;
    publish_key();
  }

  // --- sleep states (PowerNap-style; used by the auto-scaler) ---
  /// Puts an *idle* node into deep sleep: power drops to the spec's
  /// sleep_power and the node stops accepting. Requires load() == 0.
  void park();
  /// Starts waking a parked node; it accepts traffic again after the
  /// configured wake latency. No-op when not parked.
  void unpark();
  bool parked() const { return parked_; }
  bool waking() const { return waking_; }

  /// Hard power loss (breaker trip): every in-flight and queued request
  /// is lost (recorded as kFailedOutage), power drops to zero, and the
  /// node refuses traffic until `power_on` completes a reboot.
  void power_off();
  /// Begins recovery from an outage; serving resumes after `boot_time`.
  void power_on(Duration boot_time);
  bool powered_off() const { return powered_off_; }

 private:
  struct Slot {
    bool busy = false;
    workload::Request request;
    /// Remaining work in microseconds-at-f_max.
    double remaining_work = 0.0;
    Time segment_start = 0;
    /// Slowdown factor of the current segment (duration = work * slowdown).
    double segment_slowdown = 1.0;
    sim::EventId completion = 0;
  };

  /// The `lb_key()` that `load()` and `accepting()` imply right now.
  std::uint32_t state_key() const;
  /// Republishes `lb_key()` from the node's state.
  void publish_key() { set_lb_key(state_key()); }
  void begin_service(std::size_t slot_index, workload::Request&& request);
  void finish_service(std::size_t slot_index);
  void drain_queue();
  /// Claims the lowest free slot index in O(cores/64) via the free-slot
  /// bitmask. Lowest-first (not LIFO) keeps slot occupancy — and with it
  /// retiming/visit order — byte-identical to the historical scan.
  std::size_t claim_free_slot();
  void release_slot(std::size_t slot_index);
  void apply_level(power::DvfsLevel level);
  double slowdown_at(const workload::RequestTypeProfile& profile,
                     power::DvfsLevel level) const;
  void refresh_power();
  void integrate_energy() const;
  void emit(const workload::Request& request,
            workload::RequestOutcome outcome, Duration latency);
  void span_queue_begin(const workload::Request& request);
  void span_queue_end(const workload::Request& request,
                      const char* outcome);
  void span_service_begin(const workload::Request& request,
                          std::size_t slot_index, Watts request_power);
  void span_service_end(const workload::Request& request,
                        const char* outcome);

  sim::Engine& engine_;
  int id_;
  int zone_;
  const workload::Catalog& catalog_;
  power::ServerPowerModel model_;
  ServerConfig config_;
  workload::RecordSink sink_;
  /// Cached from the engine's hub at construction; null disables queue /
  /// service span recording entirely (guard-on-null).
  obs::SpanTracer* spans_ = nullptr;

  std::vector<Slot> slots_;
  /// Bit i set => slots_[i] is free (one word per 64 cores).
  std::vector<std::uint64_t> free_mask_;
  unsigned active_count_ = 0;
  std::deque<workload::Request> queue_;
  bool accepting_ = true;
  bool parked_ = false;
  bool waking_ = false;
  bool powered_off_ = false;
  sim::EventId wake_event_ = 0;

  power::DvfsLevel level_;
  power::DvfsLevel target_level_;
  bool actuation_pending_ = false;
  sim::EventId actuation_event_ = 0;

  Watts current_power_{0.0};
  mutable Joules energy_{0.0};
  mutable Time last_energy_update_ = 0;

  ServerCounters counters_;
};

}  // namespace dope::server
