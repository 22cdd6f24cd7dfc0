// Live progress telemetry: a latest-snapshot tap and the thread that
// drains it to files.
//
// A long sweep or fuzz campaign publishes a small `LiveSnapshot` into a
// `LiveTap` after every finished run; a `LiveDrainer` in the CLI copies
// the latest one into an atomically replaced JSON file and a Prometheus
// text sibling, and prints progress lines. The tap is one snapshot
// behind a mutex: publishers already serialise their tallies under
// their own lock, so it is uncontended, and a reader can never see a
// torn snapshot. Nothing here feeds back into simulation results.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "common/thread_annotations.hpp"

namespace dope::obs {

/// One progress snapshot of a sweep in flight.
struct LiveSnapshot {
  /// Publication sequence number (1-based; 0 = never published).
  std::uint64_t seq = 0;
  std::uint64_t runs_total = 0;
  std::uint64_t runs_completed = 0;
  std::uint64_t runs_failed = 0;
  /// Wall-clock stats over completed runs (milliseconds).
  double wall_ms_sum = 0.0;
  double wall_ms_min = 0.0;
  double wall_ms_max = 0.0;
  std::uint64_t wall_ms_count = 0;
  /// True on the final snapshot, after the grid has drained.
  bool done = false;

  /// Tallies one finished run: completion and failure counts plus its
  /// wall-clock time.
  void record(bool ok, double wall_ms);
};

/// The latest published snapshot, readable from any thread.
class LiveTap {
 public:
  LiveTap() = default;

  LiveTap(const LiveTap&) = delete;
  LiveTap& operator=(const LiveTap&) = delete;

  /// Publishes `snap`, assigning the next `seq`.
  void publish(LiveSnapshot snap) EXCLUDES(mu_);

  /// Copies the most recent snapshot into `out`; false (leaving `out`
  /// untouched) when nothing has been published yet.
  bool latest(LiveSnapshot& out) const EXCLUDES(mu_);

  /// Snapshots published so far.
  std::uint64_t published() const EXCLUDES(mu_);

 private:
  mutable std::mutex mu_;
  LiveSnapshot latest_ GUARDED_BY(mu_);  // seq 0: never published
};

/// A host-side thread that, every `interval_ms` and once more when it is
/// destroyed, copies the tap's latest snapshot — when it is new — into
/// `json_path` and its `.prom` sibling (".json" replaced; each file
/// atomically replaced) and prints a "<tool>: 7/12 <unit>s, mean 14.5
/// ms/<unit>" line to stderr. A tap never published writes no file.
class LiveDrainer {
 public:
  LiveDrainer(const LiveTap& tap, std::string json_path, std::string tool,
              std::string unit, long interval_ms);
  /// Wakes the thread for its final emit and joins it.
  ~LiveDrainer();

  LiveDrainer(const LiveDrainer&) = delete;
  LiveDrainer& operator=(const LiveDrainer&) = delete;

 private:
  void loop() EXCLUDES(mu_);
  void emit();

  const LiveTap& tap_;
  const std::string json_path_, prom_path_, tool_, unit_;
  const long interval_ms_;
  std::uint64_t last_seq_ = 0;  // drainer thread only
  std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

/// Writes `snap` as a JSON object.
void write_live_json(std::ostream& out, const LiveSnapshot& snap);

/// Writes `snap` in Prometheus text exposition format
/// (`dope_sweep_*` gauges).
void write_live_prometheus(std::ostream& out, const LiveSnapshot& snap);

}  // namespace dope::obs
