#include "obs/span.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <ostream>
#include <string_view>
#include <utility>

#include "common/expect.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace dope::obs {

static_assert(sizeof(Span) == 80, "a span is ten words");

SpanTracer::SpanTracer(SpanConfig config) : config_(config) {
  // Span indices live in 32 bits, next to their id in the open table.
  DOPE_REQUIRE(config_.max_spans < kNoSpan, "max_spans must fit 32 bits");
}

void SpanTracer::begin(Span span) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(span.kind)];
  if (spans_.size() >= config_.max_spans) return;
  span.end = -1;
  if (2 * (open_used_ + 1) > open_.size()) grow_open();
  OpenCell& cell = open_[open_slot(span.id)];
  if (cell.index == kNoSpan) ++open_used_;
  cell = {span.id, static_cast<std::uint32_t>(spans_.size())};
  spans_.push_back(span);
}

void SpanTracer::end(std::uint64_t id, Time t, const char* outcome) {
  const std::size_t i = open_.empty() ? 0 : open_slot(id);
  if (open_.empty() || open_[i].index == kNoSpan) {
    ++unmatched_ends_;
    return;
  }
  Span& span = spans_[open_[i].index];
  span.end = t;
  span.outcome = outcome;
  span.close_seq = closed_++;
  erase_open(i);
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

std::size_t SpanTracer::open_home(std::uint64_t id) const {
  return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >>
                                  open_shift_);
}

std::size_t SpanTracer::open_slot(std::uint64_t id) const {
  const std::size_t mask = open_.size() - 1;
  std::size_t i = open_home(id);
  while (open_[i].index != kNoSpan && open_[i].id != id) i = (i + 1) & mask;
  return i;
}

void SpanTracer::grow_open() {
  std::vector<OpenCell> old(open_.empty() ? 64 : 2 * open_.size());
  old.swap(open_);
  open_shift_ = 64 - static_cast<unsigned>(std::countr_zero(open_.size()));
  for (const OpenCell& cell : old) {
    if (cell.index != kNoSpan) open_[open_slot(cell.id)] = cell;
  }
}

void SpanTracer::erase_open(std::size_t i) {
  const std::size_t mask = open_.size() - 1;
  for (std::size_t j = (i + 1) & mask; open_[j].index != kNoSpan;
       j = (j + 1) & mask) {
    // The cell at j may move back to the hole at i unless its home lies
    // cyclically within (i, j].
    const std::size_t home = open_home(open_[j].id);
    if (((j - home) & mask) >= ((j - i) & mask)) {
      open_[i] = open_[j];
      i = j;
    }
  }
  open_[i] = OpenCell{};
  --open_used_;
}

std::vector<std::uint32_t> SpanTracer::close_order() const {
  // A span closed at a negative time reads as open and leaves its place
  // unset.
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
      .integer(span.parent())
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

/// Positions `0..n` in time order, ties in recording order. Empty when
/// they are in time order already — the recorded order is then the
/// answer, and no index is built.
template <class TimeAt>
std::vector<std::size_t> time_order(std::size_t n, TimeAt time_at) {
  std::size_t k = 1;
  while (k < n && time_at(k - 1) <= time_at(k)) ++k;
  if (k >= n) return {};
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return time_at(a) < time_at(b);
                   });
  return order;
}

/// The `k`-th position in `order` (see `time_order`).
std::size_t nth(const std::vector<std::size_t>& order, std::size_t k) {
  return order.empty() ? k : order[k];
}

/// Puts `ends`, indices of closed spans, into (end, index) order. A
/// close order is already in end-time order, so only each run of equal
/// end times needs its indices sorted (a service span and its request
/// close at the same µs, the later-recorded first); a list that is not
/// in end-time order is sorted whole, once.
void put_in_end_order(const SpanLog& spans, std::vector<std::uint32_t>& ends) {
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
                        const EventLog& events, const SpanTracer& tracer) {
  const SpanLog& spans = tracer.spans();
  const std::vector<std::size_t> event_order = time_order(
      events.size(), [&](std::size_t i) { return events.time(i); });
  const std::vector<std::size_t> begin_order = time_order(
      spans.size(), [&](std::size_t i) { return spans[i].begin; });
  std::vector<std::uint32_t> ends = tracer.close_order();
  put_in_end_order(spans, ends);

  std::size_t ie = 0;
  std::size_t ib = 0;
  std::size_t ix = 0;
  while (ie < events.size() || ib < spans.size() || ix < ends.size()) {
    const std::size_t e = ie < events.size() ? nth(event_order, ie) : 0;
    const Span* b = ib < spans.size() ? &spans[nth(begin_order, ib)] : nullptr;
    const Span* x = ix < ends.size() ? &spans[ends[ix]] : nullptr;
    if (ie < events.size() && (b == nullptr || events.time(e) <= b->begin) &&
        (x == nullptr || events.time(e) <= x->end)) {
      write_jsonl_event(buf, events[e]);
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
  write_merged_jsonl(out, buf, EventLog{}, *this);
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
