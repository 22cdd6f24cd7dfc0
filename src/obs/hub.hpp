// The observability hub: one object bundling the pillars — metrics
// registry, trace recorder, alert watchdog, and (opt-in) request span
// tracer — wired together (watchdog alerts land in the trace; spans and
// events merge into one export).
//
// Ownership/threading model: create one `Hub` per simulation run and
// attach it to that run's `sim::Engine` (`engine.set_obs(&hub)`) *before*
// constructing components, which cache their instruments at construction.
// A null hub (the default) is the null sink: every instrumented call
// site guards on the pointer, so a run without a hub performs no
// observability work and no allocation. Span tracing is additionally
// opt-in per hub (`HubConfig::enable_spans`): call sites cache
// `hub->spans()` — null when disabled — so a hub without spans records
// exactly what it did before spans existed. A Hub must not be shared by
// concurrently running scenarios — instruments are deliberately
// lock-free plain stores.
//
// Thread-safety analysis (common/thread_annotations.hpp): the Hub
// carries no capability annotations because it owns no locks — its
// contract is single-owner-per-run. The places a Hub is touched from
// multiple threads, the sweep and fuzz worker pools, route every
// instrument access through a ProgressBoard (sweep.cpp, fuzzer.cpp),
// whose PT_GUARDED_BY members make the clang -Wthread-safety lane prove
// the serialization.
#pragma once

#include <iosfwd>
#include <memory>
#include <string_view>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace dope::obs {

struct HubConfig {
  TraceConfig trace{};
  /// Request-lifecycle span tracing; off by default (spans are the one
  /// pillar with per-request cost even when nobody exports them).
  bool enable_spans = false;
  /// Per-slot time-series rings; off by default (per-slot cost).
  bool enable_timeseries = false;
  /// Flight recorder (incident bundles); off by default. Usually
  /// enabled together with timeseries + spans so bundles carry the
  /// pre-trigger history and attribution sections.
  bool enable_flight = false;
};

class Hub {
 public:
  explicit Hub(HubConfig config = {})
      : trace_(config.trace), watchdog_(&trace_) {
    if (config.enable_spans) {
      spans_ = std::make_unique<SpanTracer>();
    }
    if (config.enable_timeseries) {
      timeseries_ = std::make_unique<TimeSeriesStore>();
    }
    if (config.enable_flight) {
      flight_ = std::make_unique<FlightRecorder>(timeseries_.get(), &trace_,
                                                 spans_.get());
      // Tap the recorder, not Hub::event: the watchdog (and anything
      // else holding a TraceRecorder*) records directly, and triggers
      // must fire for those events too.
      trace_.set_listener(
          [this](const EventView& e) { flight_->on_trace_event(e); });
    }
  }

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  Watchdog& watchdog() { return watchdog_; }
  const Watchdog& watchdog() const { return watchdog_; }
  /// Null when span tracing is disabled — cache and guard, like the hub
  /// pointer itself.
  SpanTracer* spans() { return spans_.get(); }
  const SpanTracer* spans() const { return spans_.get(); }
  /// Null when time-series recording is disabled — cache and guard.
  TimeSeriesStore* timeseries() { return timeseries_.get(); }
  const TimeSeriesStore* timeseries() const { return timeseries_.get(); }
  /// Null when the flight recorder is disabled.
  FlightRecorder* flight() { return flight_.get(); }
  const FlightRecorder* flight() const { return flight_.get(); }

  /// Shorthand for trace().record(...).
  void event(const TraceEvent& e) { trace_.record(e); }

  /// DOPE_AUDIT failure hook (common/audit.hpp calls this *before* the
  /// fatal throw): snapshots an incident bundle so the post-mortem
  /// exists when the process unwinds. No-op without a flight recorder.
  void audit_failure(Time t, std::string_view check,
                     std::string_view message) {
    if (flight_) flight_->on_audit_failure(t, check, message);
  }

  /// JSONL export of the whole hub: the event trace, merged (in time
  /// order) with SpanBegin/SpanEnd records when spans are enabled.
  /// Byte-identical to `trace().write_jsonl` when they are not.
  void write_trace_jsonl(std::ostream& out) const;

  /// Chrome trace_event export: the instant-event rows, plus — when
  /// spans are enabled — duration (B/E) pairs on one track per
  /// (server, slot) and async request/queue spans. Byte-identical to
  /// `trace().write_chrome_trace` when spans are disabled.
  void write_chrome_trace(std::ostream& out) const;

 private:
  Registry registry_;
  TraceRecorder trace_;
  Watchdog watchdog_;
  std::unique_ptr<SpanTracer> spans_;
  std::unique_ptr<TimeSeriesStore> timeseries_;
  std::unique_ptr<FlightRecorder> flight_;
};

}  // namespace dope::obs
