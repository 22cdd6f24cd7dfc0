#include "metrics/request_metrics.hpp"

#include <algorithm>
#include <limits>

#include "common/expect.hpp"

namespace dope::metrics {

namespace {

constexpr Duration kNarrowMax = std::numeric_limits<std::uint32_t>::max();

void bump(OutcomeCounts& counts, workload::RequestOutcome outcome) {
  switch (outcome) {
    case workload::RequestOutcome::kCompleted: ++counts.completed; break;
    case workload::RequestOutcome::kDroppedByLimit:
      ++counts.dropped_by_limit;
      break;
    case workload::RequestOutcome::kBlockedByFirewall:
      ++counts.blocked_by_firewall;
      break;
    case workload::RequestOutcome::kRejectedQueueFull:
      ++counts.rejected_queue_full;
      break;
    case workload::RequestOutcome::kTimedOut: ++counts.timed_out; break;
    case workload::RequestOutcome::kFailedOutage:
      ++counts.failed_outage;
      break;
    case workload::RequestOutcome::kDroppedNetwork:
      ++counts.dropped_network;
      break;
  }
}

}  // namespace

void LatencyStore::add(Duration latency) {
  DOPE_REQUIRE(latency >= 0, "latency must be non-negative");
  sum_ms_ += to_millis(latency);
  if (latency <= kNarrowMax) {
    narrow_.push_back(static_cast<std::uint32_t>(latency));
  } else {
    wide_.push_back(latency);
  }
}

double LatencyStore::mean() const {
  return empty() ? 0.0 : sum_ms_ / static_cast<double>(count());
}

Duration LatencyStore::select(std::size_t k) const {
  if (k < narrow_.size()) {
    std::nth_element(narrow_.begin(), narrow_.begin() + k, narrow_.end());
    return narrow_[k];
  }
  k -= narrow_.size();
  std::nth_element(wide_.begin(), wide_.begin() + k, wide_.end());
  return wide_[k];
}

Duration LatencyStore::select_next(std::size_t k) const {
  if (k + 1 < narrow_.size()) {
    return *std::min_element(narrow_.begin() + k + 1, narrow_.end());
  }
  // Past the narrow samples: the smallest wide one after position k.
  return *std::min_element(wide_.begin() + (k + 1 - narrow_.size()),
                           wide_.end());
}

double LatencyStore::percentile(double p) const {
  DOPE_REQUIRE(p >= 0.0 && p <= 100.0, "percentile rank out of range");
  const std::size_t n = count();
  if (n == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const double at_lo = to_millis(select(lo));
  const double at_hi = lo + 1 < n ? to_millis(select_next(lo)) : at_lo;
  return at_lo + frac * (at_hi - at_lo);
}

double LatencyStore::min() const {
  if (empty()) return 0.0;
  return to_millis(narrow_.empty()
                       ? *std::min_element(wide_.begin(), wide_.end())
                       : *std::min_element(narrow_.begin(), narrow_.end()));
}

double LatencyStore::max() const {
  if (empty()) return 0.0;
  return to_millis(wide_.empty()
                       ? *std::max_element(narrow_.begin(), narrow_.end())
                       : *std::max_element(wide_.begin(), wide_.end()));
}

void RequestMetrics::record(const workload::RequestRecord& record) {
  const bool attack = record.request.ground_truth_attack;
  OutcomeCounts& counts = attack ? attack_counts_ : normal_counts_;
  bump(counts, record.outcome);
  if (keep_latency_ &&
      record.outcome == workload::RequestOutcome::kCompleted) {
    (attack ? attack_latency_ : normal_latency_).add(record.latency);
  }
}

workload::RecordSink RequestMetrics::sink() {
  return [this](const workload::RequestRecord& record) { this->record(record); };
}

double RequestMetrics::availability() const {
  const std::uint64_t terminal = normal_counts_.terminal();
  if (terminal == 0) return 1.0;
  return static_cast<double>(normal_counts_.completed) /
         static_cast<double>(terminal);
}

double RequestMetrics::drop_fraction() const {
  const std::uint64_t terminal = total_terminal();
  if (terminal == 0) return 0.0;
  const std::uint64_t lost =
      normal_counts_.lost() + attack_counts_.lost();
  return static_cast<double>(lost) / static_cast<double>(terminal);
}

}  // namespace dope::metrics
