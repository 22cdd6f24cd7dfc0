#include "obs/span.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace dope::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kFirewall: return "firewall";
    case SpanKind::kLbPick: return "lb_pick";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kService: return "service";
  }
  return "?";
}

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
  open_.erase(it);
}

void SpanTracer::instant(Span span, Time t) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(span.kind)];
  if (spans_.size() >= config_.max_spans) return;
  span.begin = t;
  span.end = t;
  spans_.push_back(span);
}

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
      .raw(", \"kind\": ")
      .str(span_kind_name(span.kind))
      .raw(", \"source_id\": ")
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
      .raw(", \"kind\": ")
      .str(span_kind_name(span.kind))
      .raw(", \"outcome\": ")
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

}  // namespace

void write_merged_jsonl(std::ostream& out, JsonBuf& buf,
                        const std::vector<TraceEvent>& events,
                        const std::vector<Span>& spans) {
  const std::vector<std::size_t> event_order =
      time_order(events, [](const TraceEvent& e) { return e.t; });
  const std::vector<std::size_t> begin_order =
      time_order(spans, [](const Span& s) { return s.begin; });
  // Ends are not recorded in time order (a long span closes after later
  // short ones). (end, index) pairs sort like a stable sort by end.
  std::vector<std::pair<Time, std::size_t>> ends;
  ends.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].open()) ends.emplace_back(spans[i].end, i);
  }
  std::sort(ends.begin(), ends.end());

  std::size_t ie = 0;
  std::size_t ib = 0;
  std::size_t ix = 0;
  while (ie < events.size() || ib < spans.size() || ix < ends.size()) {
    const TraceEvent* e =
        ie < events.size() ? &nth(events, event_order, ie) : nullptr;
    const Span* b = ib < spans.size() ? &nth(spans, begin_order, ib) : nullptr;
    const bool has_end = ix < ends.size();
    if (e != nullptr && (b == nullptr || e->t <= b->begin) &&
        (!has_end || e->t <= ends[ix].first)) {
      write_jsonl_event(buf, *e);
      ++ie;
    } else if (b != nullptr && (!has_end || b->begin <= ends[ix].first)) {
      write_span_begin_jsonl(buf, *b);
      ++ib;
    } else {
      write_span_end_jsonl(buf, spans[ends[ix].second]);
      ++ix;
    }
    buf.raw('\n');
    buf.spill(out);
  }
}

void SpanTracer::write_jsonl(std::ostream& out) const {
  JsonBuf buf;
  write_merged_jsonl(out, buf, {}, spans_);
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
