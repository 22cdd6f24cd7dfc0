// Per-slot time-series store — the flight recorder's black-box memory.
//
// Metrics snapshots (obs/metrics.hpp) answer "what were the totals";
// they cannot answer "what did the 30 s before the breaker trip look
// like". The store keeps that history in fixed memory: every signal a
// component feeds per management slot (power draw, budget, headroom,
// battery SoC, queue depth, firewall bans, attack rate, ...) lands in a
// ring of raw samples plus two tiers of downsampled aggregates —
//
//   raw      last `kRawCapacity` samples, full resolution
//   tier10   min/mean/max over every 10 raw samples
//   tier100  min/mean/max over every 100 raw samples
//
// — so an arbitrarily long run fits a bounded footprint while recent
// history stays slot-exact and older history degrades gracefully.
//
// Like every obs pillar, the store only observes: feeding it never
// schedules an event, consumes randomness, or branches simulation
// logic. Components cache `Series*` handles at bind time and guard on
// null, so a run without a store does zero work and stays
// byte-identical on every export surface.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace dope::obs {

/// Raw samples folded into one tier-1 / tier-2 aggregate bucket.
inline constexpr std::size_t kTier1FanIn = 10;
inline constexpr std::size_t kTier2FanIn = 100;

/// Raw ring length, in samples (slots). 600 one-second slots = ten
/// minutes of full-resolution history.
inline constexpr std::size_t kRawCapacity = 600;
/// Tier-1 and tier-2 ring lengths, in buckets of kTier1FanIn /
/// kTier2FanIn raw samples.
inline constexpr std::size_t kTier1Capacity = 360;
inline constexpr std::size_t kTier2Capacity = 360;

/// One full-resolution sample. `index` is the sample's position in the
/// series since the start of the run (monotone, survives ring
/// eviction), so exports stay globally ordered.
struct RawSample {
  std::uint64_t index = 0;
  Time t = 0;
  double value = 0.0;
};

/// One downsampled bucket: min/mean/max over `count` raw samples
/// starting at raw index `first_index`.
struct TierBucket {
  std::uint64_t first_index = 0;
  std::uint64_t count = 0;
  Time first_t = 0;
  Time last_t = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;

  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

/// One named signal: a raw ring plus the two aggregate tiers and
/// whole-run running totals (which outlive ring eviction — the energy
/// reconciliation in incident bundles depends on them).
class Series {
 public:
  explicit Series(std::string name);

  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;

  const std::string& name() const { return name_; }

  /// Appends one per-slot sample. O(1), no allocation once the rings
  /// are warm.
  void sample(Time t, double value);

  /// Samples ever fed (eviction does not decrease this).
  std::uint64_t total_samples() const { return total_; }
  double total_sum() const { return total_sum_; }
  double seen_min() const { return total_ ? seen_min_ : 0.0; }
  double seen_max() const { return total_ ? seen_max_ : 0.0; }
  double last_value() const { return last_; }

  /// Ring contents, oldest first (copies — the rings are circular).
  std::vector<RawSample> raw() const;
  std::vector<TierBucket> tier1() const;
  std::vector<TierBucket> tier2() const;

  /// {"samples":…, "sum":…, …, "raw":[…], "tier10":[…], "tier100":[…]}.
  void write_json(std::ostream& out) const;

 private:
  template <typename T, std::size_t Capacity>
  struct Ring {
    std::vector<T> buf;
    std::size_t head = 0;  // index of the oldest element once full

    Ring() { buf.reserve(Capacity); }

    void push(const T& item) {
      if (buf.size() < Capacity) {
        buf.push_back(item);
      } else {
        buf[head] = item;
        head = (head + 1) % Capacity;
      }
    }
    std::vector<T> ordered() const {
      std::vector<T> out;
      out.reserve(buf.size());
      for (std::size_t k = 0; k < buf.size(); ++k) {
        out.push_back(buf[(head + k) % buf.size()]);
      }
      return out;
    }
  };

  static void fold(TierBucket& bucket, const RawSample& s);

  std::string name_;
  Ring<RawSample, kRawCapacity> raw_;
  Ring<TierBucket, kTier1Capacity> tier1_;
  Ring<TierBucket, kTier2Capacity> tier2_;
  TierBucket tier1_accum_;
  TierBucket tier2_accum_;
  std::uint64_t total_ = 0;
  double total_sum_ = 0.0;
  double seen_min_ = 0.0;
  double seen_max_ = 0.0;
  double last_ = 0.0;
};

/// Owner of all series; hands out stable references, mirroring
/// `Registry`.
class TimeSeriesStore {
 public:
  TimeSeriesStore() = default;

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Finds or creates a series. The returned reference stays valid for
  /// the store's lifetime — callers cache it at bind time.
  Series& series(std::string_view name);

  /// Lookup without creation.
  const Series* find(std::string_view name) const;

  std::size_t size() const { return series_.size(); }

  /// One object keyed by series name, in sorted-name order (the bytes
  /// must not depend on which component registered first).
  void write_json(std::ostream& out) const;

 private:
  std::vector<std::unique_ptr<Series>> series_;  // creation order
  /// Name -> index. Lookup only — never iterated, so hash order cannot
  /// leak into any output.
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace dope::obs
