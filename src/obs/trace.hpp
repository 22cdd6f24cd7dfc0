// Structured event tracing.
//
// Components feed typed events ("a budget violation at t", "the DPM chose
// this throttling config") instead of printf lines, and the recorder
// exports the run as either JSONL (one event object per line, for jq/
// pandas) or the Chrome `trace_event` format, which chrome://tracing and
// Perfetto open directly — each emitting component becomes its own
// timeline row.
//
// Recording only *observes* simulator state: no RNG, no engine
// scheduling, so a run traced and untraced is byte-identical. Payload
// *keys* and the `source` string must be string literals (or otherwise
// outlive the recorder); payload values are owned.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace dope::obs {

class JsonBuf;

/// Every structured event the simulator can emit.
enum class EventType {
  kRequestForwarded,  // edge accepted a request and picked a backend
  kRequestDropped,    // edge rejected a request (payload: reason)
  kBudgetViolation,   // slot demand exceeded the facility budget
  kLevelViolation,    // a power-tree level (PDU/facility) over rating
  kThrottleApplied,   // a scheme changed DVFS targets
  kBatteryDischarge,  // battery began / continued covering a deficit
  kBatteryCharge,     // battery drew headroom to recharge
  kBreakerTrip,       // utility-feed breaker opened (outage begins)
  kOutageEnd,         // power restored, servers rebooting
  kFirewallBan,       // perimeter firewall banned a source
  kAttackPhase,       // adaptive attacker changed phase (burst on/off)
  kAlertRaised,       // watchdog rule started firing
  kAlertCleared,      // watchdog rule recovered
};

inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kAlertCleared) + 1;

const char* event_type_name(EventType type);

/// One timestamped, typed event with a small structured payload.
struct TraceEvent {
  Time t = 0;
  EventType type = EventType::kRequestForwarded;
  /// Emitting component ("cluster", "firewall", "dpm", ...). Must be a
  /// string literal.
  const char* source = "";
  /// Numeric payload; keys must be string literals. JSONL inlines
  /// payload fields next to the envelope, so the keys "t_us", "t_s",
  /// "type" and "source" are reserved.
  std::vector<std::pair<const char*, double>> num;
  /// String payload; keys must be string literals, values are owned.
  std::vector<std::pair<const char*, std::string>> str;
};

struct TraceConfig {
  /// Retention cap; events past it are counted in `dropped()` but not
  /// stored (never silently — exports embed the drop count).
  std::size_t max_events = 2'000'000;
};

/// Append-only in-memory event log with JSONL / Chrome exports.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void record(TraceEvent event);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - events_.size(); }
  /// Events of one type seen so far (dropped ones included).
  std::uint64_t count(EventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }
  /// Current retention cap.
  std::size_t max_events() const { return config_.max_events; }
  /// Adjusts the retention cap. Applies to future records only: already
  /// stored events are kept even when the cap shrinks below them.
  void set_max_events(std::size_t cap) { config_.max_events = cap; }
  /// Number of distinct event types seen so far.
  std::size_t distinct_types() const;

  /// Installs a tap invoked for every `record()` call — including
  /// events past the retention cap — after the event is counted and
  /// (when retained) stored. This is how the flight recorder triggers
  /// on breaker trips and alert raises regardless of which component
  /// emitted them (the watchdog records directly, bypassing
  /// `Hub::event`). One listener; an empty function clears it. The
  /// listener must not call back into `record()`.
  void set_listener(std::function<void(const TraceEvent&)> listener) {
    listener_ = std::move(listener);
  }

  /// One JSON object per line: {"t_us":..,"t_s":..,"type":"..",
  /// "source":"..", payload fields inlined}.
  void write_jsonl(std::ostream& out) const;

  /// Chrome trace_event JSON: instant events on one row per source, with
  /// thread-name metadata so Perfetto labels the rows.
  void write_chrome_trace(std::ostream& out) const;

  /// Appends the body of `write_chrome_trace` — the comma-separated
  /// event objects without the surrounding envelope — to `buf`, spilling
  /// it into `out`, so `Hub` can append span tracks into the same
  /// traceEvents array. `first` tracks whether a separating comma is
  /// needed and is updated.
  void write_chrome_body(std::ostream& out, JsonBuf& buf, bool& first) const;

  /// Appends the `TraceTruncated` JSONL line when events were dropped.
  void write_jsonl_trailer(JsonBuf& buf) const;

 private:
  TraceConfig config_;
  std::vector<TraceEvent> events_;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kEventTypeCount> counts_{};
  std::function<void(const TraceEvent&)> listener_;
};

/// Appends one event as its JSONL object (no trailing newline). Shared by
/// `TraceRecorder::write_jsonl`, the merged span+event export and the
/// flight recorder's trace tail.
void write_jsonl_event(JsonBuf& buf, const TraceEvent& e);

}  // namespace dope::obs
