// Request-lifecycle span tracing.
//
// A *span* is a timed interval in one request's life — the root request
// span plus child spans for the firewall verdict, the LB pick, time spent
// queued, and slot occupancy on a server. Spans form a two-level tree:
// every child points at its request's root span, so "which request, from
// which source, occupied which server slot during the violation at t?"
// is a join over `{span.server, span.slot, span.begin..end}`.
//
// Span ids are *stable*: `(request_id << 3) | stage`. Request ids are
// seed-derived (`(seed << 40) ^ serial`), so two runs of the same
// scenario produce identical span ids — diffable traces.
//
// Spans live in fixed blocks of `kSpansPerBlock` (`BlockLog`, shared
// with the event log and the latency store, common/block_log.hpp):
// growth allocates one block and never moves a span, so a `Span&` into
// the log stays valid. The open spans are found through a flat
// open-addressing table, so `begin`, `end` and `instant` allocate only
// when a block fills or the table doubles.
//
// Like the rest of the hub, the tracer only observes: recording a span
// never schedules an event or consumes randomness. Call sites cache the
// `SpanTracer*` at construction and guard on null, so a run without
// spans does zero observability work and exports byte-identical results.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/block_log.hpp"
#include "common/units.hpp"

namespace dope::obs {

class JsonBuf;
class EventLog;

/// Lifecycle stage of a span; doubles as the low bits of its id.
enum class SpanKind : std::uint8_t {
  kRequest = 0,   // arrival -> terminal outcome (root)
  kFirewall = 1,  // perimeter verdict (instant)
  kLbPick = 2,    // load-balancer selection (instant)
  kQueue = 3,     // waiting in a server's FCFS queue
  kService = 4,   // occupying a server slot
};

inline constexpr std::size_t kSpanKindCount = 5;

/// Deterministic span id: request id in the high bits, stage in the low
/// three. Any component can derive a request's root-span id locally.
inline std::uint64_t span_id_for(std::uint64_t request_id, SpanKind kind) {
  return (request_id << 3) | static_cast<std::uint64_t>(kind);
}

/// One span (80 bytes). `label` and `outcome` must be string literals
/// (or otherwise outlive the tracer), mirroring the TraceEvent key
/// convention.
struct Span {
  std::uint64_t id = 0;
  SpanKind kind = SpanKind::kRequest;
  Time begin = 0;
  /// -1 while the span is still open.
  Time end = -1;
  std::uint32_t source_id = 0;
  std::uint32_t url_class = 0;
  /// Power attributed to the span (service spans: the request's active
  /// power at admission level; 0 elsewhere).
  Watts power_w{0.0};
  /// Serving node (-1 when not tied to a server).
  int server = -1;
  /// Slot index on the server (-1 when not in service).
  int slot = -1;
  /// Zone the span was recorded in (-1 for a standalone cluster; set for
  /// every span inside a `site::Site`).
  int zone = -1;
  /// Set by `SpanTracer` when the span closes: how many stored spans
  /// closed before it. Sits in the padding after `zone`, so it costs a
  /// span no bytes.
  std::uint32_t close_seq = 0;
  const char* label = "";
  const char* outcome = "";

  bool open() const { return end < 0; }
  /// Root-span id of the owning request; 0 for the root itself. Derived
  /// from the id, whose low three bits hold the stage.
  std::uint64_t parent() const {
    return kind == SpanKind::kRequest ? 0 : id & ~std::uint64_t{7};
  }
};

/// Spans per block of the span log: 80 KiB, below glibc's 128 KiB mmap
/// threshold, so blocks come from the heap and are reused after a run.
inline constexpr std::size_t kSpansPerBlock = 1024;

/// The span log: indexable and iterable in recording order.
using SpanLog = BlockLog<Span, kSpansPerBlock>;

struct SpanConfig {
  /// Retention cap; spans past it are counted but not stored (exports
  /// embed the drop count — never silent).
  std::size_t max_spans = 2'000'000;
};

/// Append-only span log with begin/end pairing.
class SpanTracer {
 public:
  explicit SpanTracer(SpanConfig config = {});

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Opens a span (`span.end` is forced to -1). Dropped silently into
  /// the overflow counter once the cap is hit. An id begun again while
  /// still open then names the newer span; the older one stays open.
  void begin(Span span);

  /// Closes the open span `id` at `t` (the newest, when its id was begun
  /// twice). Unknown ids (never begun, begun past the cap, or already
  /// closed) are counted and ignored.
  void end(std::uint64_t id, Time t, const char* outcome);

  /// Records an already-closed zero-duration span at `t` (verdicts).
  void instant(Span span, Time t);

  const SpanLog& spans() const { return spans_; }
  /// Indices into `spans()` of the closed spans, in the order they
  /// closed (`end` and `instant` calls), rebuilt from their `close_seq`.
  /// Spans close at the engine's clock, so this is normally in end-time
  /// order already.
  std::vector<std::uint32_t> close_order() const;
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - spans_.size(); }
  /// Ends that matched no open span.
  std::uint64_t unmatched_ends() const { return unmatched_ends_; }
  std::size_t open_count() const { return open_used_; }
  std::uint64_t count(SpanKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  std::size_t max_spans() const { return config_.max_spans; }

  /// One `SpanBegin`/`SpanEnd` JSONL record pair per span, time-ordered
  /// (stand-alone export: `write_merged_jsonl` with no events;
  /// `Hub::write_trace_jsonl` merges spans with the event trace instead).
  void write_jsonl(std::ostream& out) const;

  /// Appends the `SpanTruncated` JSONL line when spans were dropped.
  void write_jsonl_trailer(JsonBuf& buf) const;

 private:
  /// One open span: its id and its index in `spans_`; `kNoSpan` marks
  /// an empty cell.
  struct OpenCell {
    std::uint64_t id = 0;
    std::uint32_t index = kNoSpan;
  };
  static constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

  /// The cell holding `id`, or the empty cell where it would go.
  std::size_t open_slot(std::uint64_t id) const;
  /// The cell `id` hashes to.
  std::size_t open_home(std::uint64_t id) const;
  /// Doubles the open table (64 cells at first) and reinserts.
  void grow_open();
  /// Empties cell `i`, shifting later cells of its probe run back so
  /// every remaining id stays reachable from its home cell.
  void erase_open(std::size_t i);

  SpanConfig config_;
  SpanLog spans_;
  /// Open-span lookup: id -> index into spans_, open addressing over a
  /// power-of-two table with linear probing, at most half full. Lookup
  /// only — never iterated, so hash order cannot leak into any output.
  std::vector<OpenCell> open_;
  std::size_t open_used_ = 0;
  /// 64 - log2(open_.size()); set by grow_open.
  unsigned open_shift_ = 0;
  /// Stored spans closed so far (the next `close_seq`).
  std::uint32_t closed_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t unmatched_ends_ = 0;
  std::array<std::uint64_t, kSpanKindCount> counts_{};
};

/// Appends one span as its JSONL `SpanBegin` record (no trailing
/// newline — callers append '\n').
void write_span_begin_jsonl(JsonBuf& buf, const Span& span);

/// Appends one span as its JSONL `SpanEnd` record. Only valid for closed
/// spans.
void write_span_end_jsonl(JsonBuf& buf, const Span& span);

/// Writes `events` and the SpanBegin/SpanEnd records of `tracer`'s spans
/// as one time-ordered JSONL stream, one record per line, through `buf`
/// into `out`. At equal t, events come first, then begins, then ends (so an
/// instant span's End follows its Begin); within a kind, ties keep
/// recording order (ends: span index order). Events, begins and the
/// tracer's close order are recorded at the engine's clock, so each is
/// normally in time order already and is streamed as is, with only runs
/// of equal end time put into index order; a stream that is not
/// (hand-fed input) is sorted by time first. Trailers are the caller's.
void write_merged_jsonl(std::ostream& out, JsonBuf& buf,
                        const EventLog& events, const SpanTracer& tracer);

}  // namespace dope::obs
