// Flight recorder — incident capture for post-mortems.
//
// Operators reconstruct a DOPE incident *after the fact*: what did the
// 30 s before the breaker trip look like, who was on the slots, which
// alert fired first? The flight recorder answers that by snapshotting
// the observability state the moment an incident begins:
//
//   trigger:   breaker trip, BudgetViolation *onset* (not every slot of
//              a continuing violation), watchdog alert raise,
//              DOPE_AUDIT=FATAL failure, or an explicit
//              `--dump-incident-at` request;
//   snapshot:  every TimeSeriesStore ring (obs/timeseries.hpp), the
//              last-N trace events, the spans still open, and the
//              forensics top-K suspect ranking at that instant;
//   output:    one self-contained, schema-versioned *incident bundle*
//              JSON (docs/OBSERVABILITY.md) that `dopereport` turns
//              into a markdown post-mortem.
//
// Determinism: ids and timestamps derive from sim time and the run
// seed — never wall clock — so the same scenario produces a
// byte-identical bundle on every run and thread count. Triggers are
// deduplicated per management slot (two triggers in one slot produce
// one incident), and captures past `kMaxIncidents` are counted and
// reported via an `IncidentTruncated` trailer, mirroring `--trace-cap`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace dope::obs {

/// Incident bundles retained per run; further triggers are counted and
/// surfaced through the IncidentTruncated trailer.
inline constexpr std::size_t kMaxIncidents = 8;

/// Identity of the run a bundle belongs to; serialized into the
/// envelope so a bundle is self-describing.
struct FlightRunContext {
  std::uint64_t seed = 0;
  std::string scheme;
  Time slot = 0;
  Time duration = 0;
  /// Free-form run label (sweep point label, fuzz case id, ...).
  std::string label;
};

/// Captures incident bundles from live obs state. Wired by `Hub`: the
/// hub installs it as the TraceRecorder listener so triggers fire no
/// matter which component recorded the event.
class FlightRecorder {
 public:
  /// `store` may be null (series section is empty), `spans` may be null
  /// (forensics/SLO sections are null). `trace` must outlive the
  /// recorder.
  FlightRecorder(const TimeSeriesStore* store, const TraceRecorder* trace,
                 const SpanTracer* spans);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_run_context(FlightRunContext context);
  /// URL classes Anti-DOPE flagged as suspects; cross-referenced in the
  /// forensics section ("suspicious": true on matching sources).
  void set_suspect_classes(std::vector<std::uint32_t> classes);

  /// TraceRecorder tap (see class comment).
  void on_trace_event(const EventView& e);

  /// DOPE_AUDIT=FATAL path: called *before* the audit throws so the
  /// bundle exists when the process unwinds.
  void on_audit_failure(Time t, std::string_view check,
                        std::string_view message);

  /// Explicit operator trigger (`--dump-incident-at`).
  void dump_now(Time t, std::string_view reason);

  std::size_t incident_count() const { return incidents_.size(); }
  /// Triggers that began a new incident (captured or dropped over cap).
  std::uint64_t triggers() const { return triggers_; }
  /// Triggers folded into an existing same-slot incident.
  std::uint64_t deduped() const { return deduped_; }
  /// Incidents dropped over `kMaxIncidents`.
  std::uint64_t dropped() const { return dropped_; }

  /// The bundle: schema envelope + run context + run-level SLO section
  /// + every captured incident (+ IncidentTruncated trailer when over
  /// cap).
  void write_json(std::ostream& out) const;

 private:
  void capture(Time t, const char* trigger, const std::string& detail,
               int zone);
  void write_slo_json(std::ostream& out) const;

  const TimeSeriesStore* store_;
  const TraceRecorder* trace_;
  const SpanTracer* spans_;
  FlightRunContext context_;
  std::vector<std::uint32_t> suspect_classes_;
  /// Fully rendered incident JSON objects, in capture order. Rendered
  /// at trigger time — the rings keep moving afterwards.
  std::vector<std::string> incidents_;
  std::uint64_t triggers_ = 0;
  std::uint64_t deduped_ = 0;
  std::uint64_t dropped_ = 0;
  std::int64_t last_capture_slot_ = -1;
  /// Last slot with a BudgetViolation, per zone (-1 = standalone
  /// cluster): a violation in slot s+1 after one in slot s is a
  /// continuation, not a new onset. Lookup only — never iterated.
  std::unordered_map<int, std::int64_t> last_violation_slot_;
};

}  // namespace dope::obs
