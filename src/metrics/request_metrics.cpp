#include "metrics/request_metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <span>
#include <type_traits>

#include "common/expect.hpp"

namespace dope::metrics {

namespace {

constexpr Duration kNarrowMax = std::numeric_limits<std::uint32_t>::max();

/// The k-th and (k+1)-th smallest of the samples that `visit` hands, as
/// `std::span<const V>` chunks, to the callable it is given; the second
/// is the first again when k is the last rank. Every sample lies in
/// [lo, hi].
///
/// A most-significant-digit radix select over `sample - lo` that only
/// reads the samples: each pass histograms the next `kDigitBits` of the
/// samples whose higher digits equal the k-th's, found so far, and picks
/// the bucket holding rank k. The (k+1)-th follows the same buckets until
/// a pass where rank k is its bucket's last sample; from there it is the
/// smallest sample of the next non-empty bucket, read off that pass's
/// histogram when it is the last pass, or else taken as a running
/// minimum during the next pass. So both ranks cost the passes of one.
template <class V, class Visit>
std::pair<V, V> select_pair(const Visit& visit, V lo, V hi, std::size_t k) {
  using Key = std::make_unsigned_t<V>;
  constexpr int kDigitBits = 11;
  std::array<std::size_t, std::size_t{1} << kDigitBits> hist;

  int shift = std::bit_width(static_cast<Key>(hi - lo));
  Key prefix = 0;        // the k-th's digits fixed so far, above `shift`
  std::size_t rank = k;  // k's rank among the samples sharing `prefix`
  // The (k+1)-th: on k's path; pending as the smallest sample whose bits
  // from `next_shift` up equal `next_prefix`, taken in the next pass; or
  // known.
  enum class Next { kOnPath, kPending, kKnown } state = Next::kOnPath;
  Key next_prefix = 0;
  int next_shift = 0;
  V next = lo;

  while (shift > 0) {
    const int d = std::min(kDigitBits, shift);
    shift -= d;
    const Key mask = (Key{1} << d) - 1;
    std::fill_n(hist.begin(), mask + 1, std::size_t{0});
    // `high >> d` is 0 for every sample in the first pass, like `prefix`.
    const auto count = [&](Key key) {
      const Key high = key >> shift;
      if ((high >> d) == prefix) ++hist[high & mask];
    };
    if (state != Next::kPending) {
      visit([&](std::span<const V> samples) {
        for (V v : samples) count(static_cast<Key>(v - lo));
      });
    } else {
      Key next_min = std::numeric_limits<Key>::max();
      visit([&](std::span<const V> samples) {
        for (V v : samples) {
          const auto key = static_cast<Key>(v - lo);
          count(key);
          if ((key >> next_shift) == next_prefix) {
            next_min = std::min(next_min, key);
          }
        }
      });
      next = static_cast<V>(lo + static_cast<V>(next_min));
      state = Next::kKnown;
    }

    std::size_t bucket = 0;
    while (rank >= hist[bucket]) rank -= hist[bucket++];
    if (state == Next::kOnPath && rank + 1 == hist[bucket]) {
      // Rank k is its bucket's last sample; the (k+1)-th, if any, is the
      // smallest in the next non-empty bucket.
      std::size_t after = bucket + 1;
      while (after <= mask && hist[after] == 0) ++after;
      if (after <= mask) {
        next_prefix = (prefix << d) | static_cast<Key>(after);
        next_shift = shift;
        if (shift == 0) {
          next = static_cast<V>(lo + static_cast<V>(next_prefix));
          state = Next::kKnown;
        } else {
          state = Next::kPending;
        }
      }
    }
    prefix = (prefix << d) | static_cast<Key>(bucket);
  }
  const auto at = static_cast<V>(lo + static_cast<V>(prefix));
  return {at, state == Next::kKnown ? next : at};
}

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
  min_ = std::min(min_, latency);
  max_ = std::max(max_, latency);
  if (latency <= kNarrowMax) {
    narrow_.push_back(static_cast<std::uint32_t>(latency));
  } else {
    wide_.push_back(latency);
  }
}

double LatencyStore::mean() const {
  return empty() ? 0.0 : sum_ms_ / static_cast<double>(count());
}

std::pair<Duration, Duration> LatencyStore::order_pair(std::size_t k) const {
  const auto wide = [this](auto&& fn) {
    fn(std::span<const Duration>(wide_));
  };
  const std::size_t narrow_count = narrow_.size();
  if (k >= narrow_count) {
    return select_pair(wide, kNarrowMax + 1, max_, k - narrow_count);
  }
  const auto narrow = [this](auto&& fn) { narrow_.for_each_block(fn); };
  const auto top = static_cast<std::uint32_t>(wide_.empty() ? max_
                                                            : kNarrowMax);
  const auto [at, next] =
      select_pair(narrow, static_cast<std::uint32_t>(min_), top, k);
  if (k + 1 == narrow_count && !wide_.empty()) {
    return {at, select_pair(wide, kNarrowMax + 1, max_, 0).first};
  }
  return {at, next};
}

double LatencyStore::percentile(double p) const {
  DOPE_REQUIRE(p >= 0.0 && p <= 100.0, "percentile rank out of range");
  const std::size_t n = count();
  if (n == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const auto [at, next] = order_pair(lo);
  const double at_lo = to_millis(at);
  return at_lo + frac * (to_millis(next) - at_lo);
}

double LatencyStore::min() const {
  return empty() ? 0.0 : to_millis(min_);
}

double LatencyStore::max() const {
  return empty() ? 0.0 : to_millis(max_);
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
