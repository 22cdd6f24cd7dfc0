#include "metrics/timeline.hpp"

#include <utility>

#include "common/expect.hpp"

namespace dope::metrics {

TimelineRecorder::TimelineRecorder(sim::Engine& engine, Duration interval,
                                   common::InlineFunction<double()> probe)
    : engine_(engine), probe_(std::move(probe)) {
  DOPE_REQUIRE(interval > 0, "sampling interval must be positive");
  DOPE_REQUIRE(probe_ != nullptr, "probe must be callable");
  handle_ = engine_.every(interval, [this] {
    const double v = probe_();
    samples_.push_back({engine_.now(), v});
    stats_.add(v);
  });
}

TimelineRecorder::~TimelineRecorder() { stop(); }

void TimelineRecorder::stop() { handle_.stop(); }

double TimelineRecorder::mean_between(Time from, Time to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples_) {
    if (s.t >= from && s.t < to) {
      sum += s.value;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace dope::metrics
