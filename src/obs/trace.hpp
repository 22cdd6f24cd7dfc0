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
// scheduling, so a run traced and untraced is byte-identical.
//
// Payload ownership: an emitter fills a `TraceEvent`, an allocation-free
// builder with room for `kMaxNumFields` numeric and `kMaxStrFields`
// string fields inline. Payload *keys* and the `source` string must be
// string literals (or otherwise outlive the recorder). String *values*
// are borrowed until `record()` returns; the recorder interns each
// distinct value once, so the caller's string may die right after.
// Stored events are a 24-byte header each, kept in a `BlockLog`
// (common/block_log.hpp), their fields packed into shared fixed blocks
// (`EventLog`); reading one back yields an `EventView`.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/block_log.hpp"
#include "common/expect.hpp"
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

/// One payload field: a literal key and its value.
template <class V>
struct Field {
  const char* key;
  V value;
};
using NumField = Field<double>;
using StrField = Field<std::string_view>;

/// Payload fields per event: fixed, so a `TraceEvent` never allocates.
inline constexpr std::size_t kMaxNumFields = 8;
inline constexpr std::size_t kMaxStrFields = 2;

/// Up to `kCap` payload fields, inline. Keeps the `std::vector` spelling
/// the emitters use (`emplace_back`, `= {{key, value}, ...}`); one field
/// past the capacity fails `DOPE_REQUIRE` rather than being dropped.
template <class V, std::size_t kCap>
class FieldList {
 public:
  FieldList() = default;
  FieldList(std::initializer_list<std::pair<const char*, V>> fields) {
    for (const auto& [key, value] : fields) emplace_back(key, value);
  }

  void emplace_back(const char* key, V value) {
    DOPE_REQUIRE(size_ < kCap, "trace event payload over its field capacity");
    fields_[size_++] = {key, value};
  }
  /// String values are borrowed until `record()`: a temporary string
  /// would be gone by then.
  void emplace_back(const char* key, const char* value)
    requires std::is_same_v<V, std::string_view>
  {
    emplace_back(key, V(value));
  }
  void emplace_back(const char* key, std::string&& value)
    requires std::is_same_v<V, std::string_view>
  = delete;

  std::size_t size() const { return size_; }
  const Field<V>* data() const { return fields_.data(); }
  const Field<V>* begin() const { return fields_.data(); }
  const Field<V>* end() const { return fields_.data() + size_; }

 private:
  std::array<Field<V>, kCap> fields_{};
  std::uint8_t size_ = 0;
};

/// One timestamped, typed event with a small structured payload: the
/// builder an emitter fills and hands to `TraceRecorder::record`.
struct TraceEvent {
  Time t = 0;
  EventType type = EventType::kRequestForwarded;
  /// Emitting component ("cluster", "firewall", "dpm", ...). Must be a
  /// string literal.
  const char* source = "";
  /// Numeric payload; keys must be string literals. JSONL inlines
  /// payload fields next to the envelope, so the keys "t_us", "t_s",
  /// "type" and "source" are reserved.
  FieldList<double, kMaxNumFields> num;
  /// String payload; keys must be string literals, values are borrowed
  /// until `record()` returns.
  FieldList<std::string_view, kMaxStrFields> str;
};

/// A read-only view of one event: a stored one (`EventLog`), or a
/// builder on its way through `record()`.
struct EventView {
  EventView() = default;
  /// Views a builder; valid while `e` and its string values live.
  EventView(const TraceEvent& e)  // NOLINT(google-explicit-constructor)
      : t(e.t),
        type(e.type),
        source(e.source),
        num(e.num.data(), e.num.size()),
        str(e.str.data(), e.str.size()) {}

  Time t = 0;
  EventType type = EventType::kRequestForwarded;
  const char* source = "";
  std::span<const NumField> num;
  std::span<const StrField> str;
};

/// Events per header block of the event log.
inline constexpr std::size_t kEventsPerBlock = 1024;
/// Bytes per field block of the event log: 64 KiB, below glibc's mmap
/// threshold.
inline constexpr std::size_t kFieldBlockBytes = 64 * 1024;

/// The stored events: one 24-byte header each, in blocks; each event's
/// fields as one run in a shared field block (a run never straddles two
/// blocks); each distinct string value interned once. Nothing stored
/// ever moves, so a view stays valid for the log's lifetime. Indexable
/// and iterable in recording order.
class EventLog {
 public:
  using const_iterator = IndexIterator<EventLog>;

  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void push_back(const TraceEvent& e);

  std::size_t size() const { return headers_.size(); }
  EventView operator[](std::size_t i) const;
  /// `(*this)[i].t`, without building the view.
  Time time(std::size_t i) const { return headers_[i].t; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  struct Header {
    Time t = 0;
    const char* source = "";
    /// The field run's offset in 8-byte words from the first field
    /// block's start (blocks counted whole).
    std::uint32_t fields = 0;
    std::uint8_t type = 0;
    std::uint8_t num_count = 0;
    std::uint8_t str_count = 0;
  };
  static_assert(sizeof(Header) == 24);
  static constexpr std::size_t kWordsPerBlock = kFieldBlockBytes / 8;

  /// Room for a run of `words` 8-byte words; sets `at` to its offset.
  std::byte* reserve_run(std::size_t words, std::uint32_t& at);
  std::string_view intern(std::string_view value);

  BlockLog<Header, kEventsPerBlock> headers_;
  std::vector<std::unique_ptr<std::byte[]>> field_blocks_;
  /// Words used in the last field block; "full" before the first.
  std::size_t field_top_ = kWordsPerBlock;
  /// Every distinct string value recorded; node-based, so the views
  /// into it stay put.
  std::set<std::string, std::less<>> interned_;
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

  void record(const TraceEvent& event);

  const EventLog& events() const { return events_; }
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
  /// listener must not call back into `record()`. It sees the event as
  /// given, so its string values are valid only during the call.
  void set_listener(std::function<void(const EventView&)> listener) {
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
  EventLog events_;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kEventTypeCount> counts_{};
  std::function<void(const EventView&)> listener_;
};

/// Appends one event as its JSONL object (no trailing newline). Shared by
/// `TraceRecorder::write_jsonl`, the merged span+event export and the
/// flight recorder's trace tail.
void write_jsonl_event(JsonBuf& buf, const EventView& e);

}  // namespace dope::obs
