// The adaptive DOPE attacker (paper Fig. 12).
//
// The adversary controls a botnet of agents, each looking like a normal
// client. It only sees what any Internet client sees: whether its requests
// get answered and how long they take. The control loop per epoch:
//
//   1. establish a baseline response time at a harmless probing rate;
//   2. ramp the aggregate rate multiplicatively;
//   3. if requests start being dropped at the edge (firewall bite), back
//      off below the detected ceiling — stealth dominates;
//   4. once observed latency degrades past a target multiple of baseline
//      (evidence the victim is throttling, i.e. a power emergency), hold.
//
// The attacker never reads simulator internals (power, budgets, schemes);
// its feedback is its own requests' outcomes, delivered through the same
// record stream the metrics use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"

namespace dope::obs {
class Gauge;
class Hub;
}  // namespace dope::obs

namespace dope::attack {

/// Attacker tuning.
struct DopeAttackerConfig {
  /// Traffic blend to flood with (a heavy single URL for classic DOPE).
  workload::Mixture mixture;
  /// Number of bot agents the rate is spread over.
  unsigned num_agents = 64;
  workload::SourceId source_base = 1'000'000;
  std::uint64_t seed = 99;
};

/// Controller phases (exported for Fig. 12's convergence bench).
enum class AttackPhase { kProbing, kRamping, kHolding, kBackoff };

std::string phase_name(AttackPhase phase);

/// One controller decision, for post-run analysis.
struct AttackDecision {
  Time at = 0;
  AttackPhase phase = AttackPhase::kProbing;
  double rate_rps = 0.0;
  double observed_block_fraction = 0.0;
  double observed_latency_ratio = 0.0;
};

/// Adaptive DOPE attack controller driving a TrafficGenerator.
class DopeAttacker {
 public:
  DopeAttacker(sim::Engine& engine, const workload::Catalog& catalog,
               DopeAttackerConfig config, workload::RequestSink edge);
  ~DopeAttacker();

  DopeAttacker(const DopeAttacker&) = delete;
  DopeAttacker& operator=(const DopeAttacker&) = delete;

  /// Record listener filtering for this attacker's own requests; register
  /// with `Cluster::add_record_listener`.
  workload::RecordSink feedback_sink();

  double current_rate() const { return generator_.rate(); }
  AttackPhase phase() const { return phase_; }
  const std::vector<AttackDecision>& decisions() const { return decisions_; }
  const workload::TrafficGenerator& generator() const { return generator_; }
  /// True once the controller believes it has induced a power emergency.
  bool emergency_achieved() const { return phase_ == AttackPhase::kHolding; }

  void stop();

 private:
  void on_epoch();
  void trace_phase(AttackPhase from, double rate, double block_fraction,
                   double latency_ratio);
  bool mine(const workload::RequestRecord& record) const;

  sim::Engine& engine_;
  DopeAttackerConfig config_;
  workload::TrafficGenerator generator_;
  sim::PeriodicHandle epoch_task_;

  AttackPhase phase_ = AttackPhase::kProbing;
  unsigned epochs_seen_ = 0;
  double baseline_latency_ms_ = 0.0;
  double baseline_accum_ms_ = 0.0;
  std::uint64_t baseline_count_ = 0;
  /// Rate at which detection last occurred; the attacker stays below it.
  double detected_ceiling_rps_ = 0.0;

  // Per-epoch observation window.
  std::uint64_t epoch_completed_ = 0;
  std::uint64_t epoch_lost_edge_ = 0;
  double epoch_latency_sum_ms_ = 0.0;

  std::vector<AttackDecision> decisions_;

  obs::Hub* hub_ = nullptr;
  obs::Gauge* obs_rate_ = nullptr;
};

}  // namespace dope::attack
