// Request-level metrics collection.
//
// Consumes terminal `RequestRecord`s and maintains the populations the
// paper reports separately: legitimate ("good user") vs. attacker traffic,
// split by outcome, with full latency distributions for completions.
// Defenses never see the ground-truth attack flag; only this recorder does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/block_log.hpp"
#include "common/units.hpp"
#include "workload/request.hpp"

namespace dope::metrics {

/// Outcome counters for one traffic population.
struct OutcomeCounts {
  std::uint64_t completed = 0;
  std::uint64_t dropped_by_limit = 0;
  std::uint64_t blocked_by_firewall = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed_outage = 0;
  std::uint64_t dropped_network = 0;

  std::uint64_t terminal() const {
    return completed + dropped_by_limit + blocked_by_firewall +
           rejected_queue_full + timed_out + failed_outage +
           dropped_network;
  }
  std::uint64_t lost() const { return terminal() - completed; }
};

/// Exact latency distribution of completed requests, read in
/// milliseconds. Each sample is 4 bytes: integer microseconds in a
/// `uint32_t` (up to ~71.6 min), kept in fixed blocks of `kBlock`
/// samples (a `BlockLog`), so growth never copies a sample and an empty
/// store allocates nothing. A longer latency is kept whole in a 64-bit
/// overflow vector, and every one of those ranks above every 32-bit
/// sample. Reads equal a `Percentiles` fed `to_millis` of the same
/// samples: `mean()` is the insertion-order sum of those milliseconds,
/// `min()`/`max()` are tracked by `add`, and `percentile()` finds the two
/// order statistics around the rank by a radix select that reads the
/// samples without moving them or allocating, then interpolates between
/// them with `Percentiles::percentile`'s formula. Reads are `const` in
/// fact: any order of them returns what a fresh store would.
class LatencyStore {
 public:
  /// Samples per block: 64 KiB, below glibc's mmap threshold, so blocks
  /// come from the heap and later runs in the same process reuse them.
  static constexpr std::size_t kBlock = 16384;

  /// `latency` in microseconds, non-negative.
  void add(Duration latency);

  std::size_t count() const { return narrow_.size() + wide_.size(); }
  bool empty() const { return count() == 0; }

  /// Milliseconds; 0 for an empty store.
  double mean() const;
  /// p in [0, 100], milliseconds; 0 for an empty store.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double min() const;
  double max() const;

 private:
  /// The k-th and (k+1)-th smallest samples, k < count(); the second is
  /// the first again when k is the last rank.
  std::pair<Duration, Duration> order_pair(std::size_t k) const;

  BlockLog<std::uint32_t, kBlock> narrow_;
  std::vector<Duration> wide_;
  double sum_ms_ = 0.0;
  Duration min_ = std::numeric_limits<Duration>::max();
  Duration max_ = 0;
};

/// Latency + outcome statistics for normal and attack populations.
class RequestMetrics {
 public:
  /// With `keep_latency` false only outcome counts are kept and both
  /// latency stores stay empty: a zone of a multi-zone site, whose
  /// site-wide recorder holds each completion's sample once.
  explicit RequestMetrics(bool keep_latency = true)
      : keep_latency_(keep_latency) {}

  /// Sink entry point; hand `sink()` to servers/cluster.
  void record(const workload::RequestRecord& record);

  /// Builds a RecordSink bound to this object (object must outlive it).
  workload::RecordSink sink();

  const OutcomeCounts& normal_counts() const { return normal_counts_; }
  const OutcomeCounts& attack_counts() const { return attack_counts_; }

  /// Latency distribution of *completed* requests, milliseconds.
  const LatencyStore& normal_latency_ms() const { return normal_latency_; }
  const LatencyStore& attack_latency_ms() const { return attack_latency_; }

  /// Fraction of legitimate requests that completed (paper's "service
  /// availability"). 1.0 when no legitimate request terminated yet.
  double availability() const;

  /// Fraction of *all* requests that were dropped/shed before service
  /// (how aggressively Token-style schemes discard packets).
  double drop_fraction() const;

  std::uint64_t total_terminal() const {
    return normal_counts_.terminal() + attack_counts_.terminal();
  }

 private:
  OutcomeCounts normal_counts_;
  OutcomeCounts attack_counts_;
  LatencyStore normal_latency_;
  LatencyStore attack_latency_;
  bool keep_latency_;
};

}  // namespace dope::metrics
