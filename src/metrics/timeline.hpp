// Periodic sampling of scalar signals (power, battery SoC, queue depth).
#pragma once

#include <vector>

#include "common/inline_function.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"

namespace dope::metrics {

/// One timestamped sample.
struct Sample {
  Time t = 0;
  double value = 0.0;
};

/// Samples `probe()` every `interval` and retains the full timeline plus
/// summary statistics. Used for the paper's power traces (Fig. 3, 15a) and
/// battery SoC curves (Fig. 18).
class TimelineRecorder {
 public:
  /// `probe` is called once per sampling tick; inline-stored (no heap),
  /// same contract as the engine's EventFn callbacks.
  TimelineRecorder(sim::Engine& engine, Duration interval,
                   common::InlineFunction<double()> probe);
  ~TimelineRecorder();

  TimelineRecorder(const TimelineRecorder&) = delete;
  TimelineRecorder& operator=(const TimelineRecorder&) = delete;

  const std::vector<Sample>& samples() const { return samples_; }
  const OnlineStats& stats() const { return stats_; }

  /// Stops sampling (also happens on destruction).
  void stop();

  /// Mean of samples within [from, to).
  double mean_between(Time from, Time to) const;

 private:
  sim::Engine& engine_;
  common::InlineFunction<double()> probe_;
  sim::PeriodicHandle handle_;
  std::vector<Sample> samples_;
  OnlineStats stats_;
};

}  // namespace dope::metrics
