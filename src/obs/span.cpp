#include "obs/span.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <ostream>
#include <string_view>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace dope::obs {

SpanTracer::SpanTracer(SpanConfig config) : config_(config) {}

void SpanTracer::begin(Span span) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(span.kind)];
  if (spans_.size() >= config_.max_spans) return;
  span.end = -1;
  open_[span.id] = spans_.size();
  spans_.push_back(span);
}

void SpanTracer::end(std::uint64_t id, Time t, const char* outcome) {
  const auto it = open_.find(id);
  if (it == open_.end()) {
    ++unmatched_ends_;
    return;
  }
  Span& span = spans_[it->second];
  span.end = t;
  span.outcome = outcome;
  span.close_seq = closed_++;
  open_.erase(it);
}

void SpanTracer::instant(Span span, Time t) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(span.kind)];
  if (spans_.size() >= config_.max_spans) return;
  span.begin = t;
  span.end = t;
  span.close_seq = closed_++;
  spans_.push_back(span);
}

std::vector<std::uint32_t> SpanTracer::close_order() const {
  // spans_ stays far below 2^32 entries (88 bytes each). A span closed
  // at a negative time reads as open and leaves its place unset.
  constexpr auto kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> order(closed_, kUnset);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!spans_[i].open()) {
      order[spans_[i].close_seq] = static_cast<std::uint32_t>(i);
    }
  }
  std::erase(order, kUnset);
  return order;
}

namespace {

/// The constant text around each kind's name in the span records,
/// pre-rendered (kind names need no escaping), indexed by `SpanKind`.
struct KindText {
  std::string_view begin;  // SpanBegin: the kind and the next key
  std::string_view end;    // SpanEnd: the kind and the next key
};
constexpr std::array<KindText, kSpanKindCount> kKindText = {{
    {", \"kind\": \"request\", \"source_id\": ",
     ", \"kind\": \"request\", \"outcome\": "},
    {", \"kind\": \"firewall\", \"source_id\": ",
     ", \"kind\": \"firewall\", \"outcome\": "},
    {", \"kind\": \"lb_pick\", \"source_id\": ",
     ", \"kind\": \"lb_pick\", \"outcome\": "},
    {", \"kind\": \"queue\", \"source_id\": ",
     ", \"kind\": \"queue\", \"outcome\": "},
    {", \"kind\": \"service\", \"source_id\": ",
     ", \"kind\": \"service\", \"outcome\": "},
}};

const KindText& kind_text(SpanKind kind) {
  return kKindText[static_cast<std::size_t>(kind)];
}

}  // namespace

void write_span_begin_jsonl(JsonBuf& buf, const Span& span) {
  buf.raw("{\"t_us\": ")
      .integer(span.begin)
      .raw(", \"t_s\": ")
      .seconds(span.begin)
      .raw(", \"type\": \"SpanBegin\", \"source\": \"span\", "
           "\"span_id\": ")
      .integer(span.id)
      .raw(", \"parent\": ")
      .integer(span.parent)
      .raw(kind_text(span.kind).begin)
      .integer(span.source_id)
      .raw(", \"url_class\": ")
      .integer(span.url_class);
  if (span.server >= 0) buf.raw(", \"server\": ").integer(span.server);
  if (span.slot >= 0) buf.raw(", \"slot\": ").integer(span.slot);
  if (span.zone >= 0) buf.raw(", \"zone\": ").integer(span.zone);
  if (span.power_w > Watts{0.0}) {
    buf.raw(", \"power_w\": ").num(span.power_w.value());
  }
  if (span.label[0] != '\0') buf.raw(", \"label\": ").str(span.label);
  buf.raw('}');
}

void write_span_end_jsonl(JsonBuf& buf, const Span& span) {
  buf.raw("{\"t_us\": ")
      .integer(span.end)
      .raw(", \"t_s\": ")
      .seconds(span.end)
      .raw(", \"type\": \"SpanEnd\", \"source\": \"span\", "
           "\"span_id\": ")
      .integer(span.id)
      .raw(kind_text(span.kind).end)
      .str(span.outcome)
      .raw('}');
}

namespace {

/// Positions of `records` in time order, ties in recording order. Empty
/// when the records are in time order already — the recorded order is
/// then the answer, and no index is built.
template <class T, class TimeOf>
std::vector<std::size_t> time_order(const std::vector<T>& records,
                                    TimeOf time_of) {
  const auto earlier = [&](const T& a, const T& b) {
    return time_of(a) < time_of(b);
  };
  if (std::is_sorted(records.begin(), records.end(), earlier)) return {};
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return earlier(records[a], records[b]);
                   });
  return order;
}

/// The `k`-th record of `records` in `order` (see `time_order`).
template <class T>
const T& nth(const std::vector<T>& records,
             const std::vector<std::size_t>& order, std::size_t k) {
  return records[order.empty() ? k : order[k]];
}

/// Puts `ends`, indices of closed spans, into (end, index) order. A
/// close order is already in end-time order, so only each run of equal
/// end times needs its indices sorted (a service span and its request
/// close at the same µs, the later-recorded first); a list that is not
/// in end-time order is sorted whole, once.
void put_in_end_order(const std::vector<Span>& spans,
                      std::vector<std::uint32_t>& ends) {
  const auto end_of = [&](std::uint32_t i) { return spans[i].end; };
  auto run = ends.begin();
  for (auto it = ends.begin(); it != ends.end(); ++it) {
    if (end_of(*it) == end_of(*run)) continue;
    if (end_of(*it) < end_of(*run)) {
      std::sort(ends.begin(), ends.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return std::pair(end_of(a), a) < std::pair(end_of(b), b);
                });
      return;
    }
    std::sort(run, it);
    run = it;
  }
  std::sort(run, ends.end());
}

}  // namespace

void write_merged_jsonl(std::ostream& out, JsonBuf& buf,
                        const std::vector<TraceEvent>& events,
                        const SpanTracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::size_t> event_order =
      time_order(events, [](const TraceEvent& e) { return e.t; });
  const std::vector<std::size_t> begin_order =
      time_order(spans, [](const Span& s) { return s.begin; });
  std::vector<std::uint32_t> ends = tracer.close_order();
  put_in_end_order(spans, ends);

  std::size_t ie = 0;
  std::size_t ib = 0;
  std::size_t ix = 0;
  while (ie < events.size() || ib < spans.size() || ix < ends.size()) {
    const TraceEvent* e =
        ie < events.size() ? &nth(events, event_order, ie) : nullptr;
    const Span* b = ib < spans.size() ? &nth(spans, begin_order, ib) : nullptr;
    const Span* x = ix < ends.size() ? &spans[ends[ix]] : nullptr;
    if (e != nullptr && (b == nullptr || e->t <= b->begin) &&
        (x == nullptr || e->t <= x->end)) {
      write_jsonl_event(buf, *e);
      ++ie;
    } else if (b != nullptr && (x == nullptr || b->begin <= x->end)) {
      write_span_begin_jsonl(buf, *b);
      ++ib;
    } else {
      write_span_end_jsonl(buf, *x);
      ++ix;
    }
    buf.raw('\n');
    buf.spill(out);
  }
}

void SpanTracer::write_jsonl(std::ostream& out) const {
  JsonBuf buf;
  write_merged_jsonl(out, buf, {}, *this);
  write_jsonl_trailer(buf);
  buf.flush(out);
}

void SpanTracer::write_jsonl_trailer(JsonBuf& buf) const {
  if (dropped() == 0) return;
  buf.raw("{\"type\": \"SpanTruncated\", \"dropped\": ")
      .integer(dropped())
      .raw(", \"cap\": ")
      .integer(config_.max_spans)
      .raw("}\n");
}

}  // namespace dope::obs
