#include "attack/dope_attacker.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "obs/hub.hpp"

namespace dope::attack {

namespace {

/// Rate the controller starts (and never backs off below) at.
constexpr double kInitialRateRps = 10.0;
constexpr double kMaxRateRps = 4000.0;
/// Multiplicative ramp per epoch while undetected and un-effective.
constexpr double kRampFactor = 1.4;
/// Multiplicative backoff after detection.
constexpr double kBackoffFactor = 0.5;
/// Decision epoch.
constexpr Duration kEpoch = 5 * kSecond;
/// Fraction of an epoch's requests lost at the edge that counts as
/// "detected".
constexpr double kBlockTolerance = 0.02;
/// Observed-latency multiple over baseline that counts as an effective
/// power emergency.
constexpr double kLatencyTarget = 3.0;
/// Epochs spent establishing the latency baseline before ramping.
constexpr unsigned kProbeEpochs = 2;

workload::GeneratorConfig generator_config(const DopeAttackerConfig& config) {
  workload::GeneratorConfig gen;
  gen.name = "dope-attacker";
  gen.mixture = config.mixture;
  gen.rate_rps = kInitialRateRps;
  gen.num_sources = config.num_agents;
  gen.source_base = config.source_base;
  gen.ground_truth_attack = true;
  gen.seed = config.seed;
  return gen;
}

}  // namespace

std::string phase_name(AttackPhase phase) {
  switch (phase) {
    case AttackPhase::kProbing: return "probing";
    case AttackPhase::kRamping: return "ramping";
    case AttackPhase::kHolding: return "holding";
    case AttackPhase::kBackoff: return "backoff";
  }
  return "?";
}

DopeAttacker::DopeAttacker(sim::Engine& engine,
                           const workload::Catalog& catalog,
                           DopeAttackerConfig config,
                           workload::RequestSink edge)
    : engine_(engine),
      config_(std::move(config)),
      generator_(engine, catalog, generator_config(config_), std::move(edge)) {
  DOPE_REQUIRE(!config_.mixture.empty(), "attacker needs a mixture");
  hub_ = engine_.obs();
  if (hub_ != nullptr) {
    obs_rate_ = &hub_->registry().gauge("attack.rate_rps");
  }
  epoch_task_ = engine_.every(kEpoch, [this] { on_epoch(); });
}

DopeAttacker::~DopeAttacker() { stop(); }

void DopeAttacker::stop() {
  epoch_task_.stop();
  generator_.stop();
}

bool DopeAttacker::mine(const workload::RequestRecord& record) const {
  const auto src = record.request.source;
  return src >= config_.source_base &&
         src < config_.source_base + config_.num_agents;
}

workload::RecordSink DopeAttacker::feedback_sink() {
  return [this](const workload::RequestRecord& record) {
    if (!mine(record)) return;
    switch (record.outcome) {
      case workload::RequestOutcome::kCompleted:
        ++epoch_completed_;
        epoch_latency_sum_ms_ += to_millis(record.latency);
        break;
      case workload::RequestOutcome::kBlockedByFirewall:
      case workload::RequestOutcome::kDroppedByLimit:
      case workload::RequestOutcome::kDroppedNetwork:
        // From the Internet these all look the same: no answer at the
        // edge — possible detection, so they feed the backoff signal.
        ++epoch_lost_edge_;
        break;
      case workload::RequestOutcome::kRejectedQueueFull:
      case workload::RequestOutcome::kTimedOut:
      case workload::RequestOutcome::kFailedOutage:
        // Server-side losses: evidence of overload, not detection. They
        // also mean the victim is hurting, so treat them as "slow".
        break;
    }
  };
}

void DopeAttacker::on_epoch() {
  ++epochs_seen_;
  const std::uint64_t observed = epoch_completed_ + epoch_lost_edge_;
  const double block_fraction =
      observed == 0 ? 0.0
                    : static_cast<double>(epoch_lost_edge_) /
                          static_cast<double>(observed);
  const double mean_latency_ms =
      epoch_completed_ == 0
          ? 0.0
          : epoch_latency_sum_ms_ / static_cast<double>(epoch_completed_);

  double latency_ratio = 0.0;
  if (baseline_latency_ms_ > 0.0 && mean_latency_ms > 0.0) {
    latency_ratio = mean_latency_ms / baseline_latency_ms_;
  }

  double rate = generator_.rate();
  const AttackPhase phase_before = phase_;
  switch (phase_) {
    case AttackPhase::kProbing:
      baseline_accum_ms_ += epoch_latency_sum_ms_;
      baseline_count_ += epoch_completed_;
      if (epochs_seen_ >= kProbeEpochs && baseline_count_ > 0) {
        baseline_latency_ms_ =
            baseline_accum_ms_ / static_cast<double>(baseline_count_);
        phase_ = AttackPhase::kRamping;
      }
      break;

    case AttackPhase::kRamping:
      if (block_fraction > kBlockTolerance) {
        detected_ceiling_rps_ = rate;
        rate = std::max(kInitialRateRps,
                        rate * kBackoffFactor);
        phase_ = AttackPhase::kBackoff;
      } else if (latency_ratio >= kLatencyTarget) {
        phase_ = AttackPhase::kHolding;
      } else {
        rate = std::min(kMaxRateRps, rate * kRampFactor);
        if (detected_ceiling_rps_ > 0.0) {
          // Creep toward, but stay safely under, the discovered ceiling.
          rate = std::min(rate, 0.8 * detected_ceiling_rps_);
        }
      }
      break;

    case AttackPhase::kHolding:
      if (block_fraction > kBlockTolerance) {
        detected_ceiling_rps_ = rate;
        rate = std::max(kInitialRateRps,
                        rate * kBackoffFactor);
        phase_ = AttackPhase::kBackoff;
      } else if (latency_ratio > 0.0 &&
                 latency_ratio < kLatencyTarget * 0.5) {
        // Victim recovered (defense adapted); resume the hunt.
        phase_ = AttackPhase::kRamping;
      }
      break;

    case AttackPhase::kBackoff:
      if (block_fraction <= kBlockTolerance) {
        phase_ = AttackPhase::kRamping;
      } else {
        rate = std::max(kInitialRateRps,
                        rate * kBackoffFactor);
      }
      break;
  }

  generator_.set_rate(rate);
  decisions_.push_back({engine_.now(), phase_, rate, block_fraction,
                        latency_ratio});
  if (obs_rate_ != nullptr) {
    obs_rate_->set(rate);
    // Same signal the scenario runner feeds from its per-slot probe, so
    // an "attack-rate" watchdog rule fires for scripted and adaptive
    // attacks alike.
    hub_->watchdog().observe("attack.rate_rps", engine_.now(), rate);
  }
  if (phase_ != phase_before) {
    trace_phase(phase_before, rate, block_fraction, latency_ratio);
  }

  epoch_completed_ = 0;
  epoch_lost_edge_ = 0;
  epoch_latency_sum_ms_ = 0.0;
}

void DopeAttacker::trace_phase(AttackPhase from, double rate,
                               double block_fraction,
                               double latency_ratio) {
  if (hub_ == nullptr) return;
  obs::TraceEvent e;
  e.t = engine_.now();
  e.type = obs::EventType::kAttackPhase;
  e.source = "attacker";
  e.num.emplace_back("rate_rps", rate);
  e.num.emplace_back("block_fraction", block_fraction);
  e.num.emplace_back("latency_ratio", latency_ratio);
  const std::string from_name = phase_name(from);
  const std::string to_name = phase_name(phase_);
  e.str.emplace_back("from", from_name);
  e.str.emplace_back("to", to_name);
  hub_->event(std::move(e));
}

}  // namespace dope::attack
