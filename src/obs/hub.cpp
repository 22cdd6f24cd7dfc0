#include "obs/hub.hpp"

#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "obs/json.hpp"

namespace dope::obs {

namespace {

/// Chrome tid for a (server, slot) service track. Slot counts are core
/// counts (tens), so 1024 slots per server keeps tids disjoint.
int service_tid(const Span& span) {
  return span.server * 1024 + span.slot + 1;
}

void write_chrome_async(JsonBuf& buf, const Span& span, const char* cat,
                        const char* name) {
  const auto head = [&](char ph) {
    buf.raw("{\"ph\": \"")
        .raw(ph)
        .raw("\", \"cat\": \"")
        .raw(cat)
        .raw("\", \"id\": \"0x")
        .integer(span.id, 16)
        .raw("\", \"pid\": 3, \"tid\": 0, \"ts\": ");
  };
  head('b');
  buf.integer(span.begin)
      .raw(", \"name\": \"")
      .raw(name)
      .raw("\", \"args\": {\"span_id\": ")
      .integer(span.id)
      .raw(", \"parent\": ")
      .integer(span.parent())
      .raw(", \"source_id\": ")
      .integer(span.source_id)
      .raw(", \"url_class\": ")
      .integer(span.url_class);
  if (span.server >= 0) buf.raw(", \"server\": ").integer(span.server);
  buf.raw("}}");
  if (span.open()) return;
  buf.raw(",\n");
  head('e');
  buf.integer(span.end)
      .raw(", \"name\": \"")
      .raw(name)
      .raw("\", \"args\": {\"outcome\": ")
      .str(span.outcome)
      .raw("}}");
}

}  // namespace

void Hub::write_trace_jsonl(std::ostream& out) const {
  if (spans_ == nullptr) {
    trace_.write_jsonl(out);
    return;
  }
  JsonBuf buf;
  write_merged_jsonl(out, buf, trace_.events(), *spans_);
  trace_.write_jsonl_trailer(buf);
  spans_->write_jsonl_trailer(buf);
  buf.flush(out);
}

void Hub::write_chrome_trace(std::ostream& out) const {
  if (spans_ == nullptr) {
    trace_.write_chrome_trace(out);
    return;
  }

  JsonBuf buf;
  buf.raw("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  trace_.write_chrome_body(out, buf, first);
  const auto separate = [&] {
    if (!first) buf.raw(",\n");
    first = false;
  };

  // Span tracks. pid 1 carries the instant-event rows (above); pid 2 is
  // the per-(server, slot) occupancy tracks; pid 3 the async
  // request/queue lanes. Firewall/LB verdict spans are zero-duration
  // bookkeeping — they live in the JSONL export only.
  const auto& spans = spans_->spans();
  std::map<int, std::pair<int, int>> slot_tracks;  // tid -> (server, slot)
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kService && span.server >= 0 &&
        span.slot >= 0) {
      slot_tracks.emplace(service_tid(span),
                          std::make_pair(span.server, span.slot));
    }
  }
  const auto metadata = [&](int pid, int tid, const char* key,
                            const std::string& name) {
    separate();
    buf.raw("{\"ph\": \"M\", \"pid\": ")
        .integer(pid)
        .raw(", \"tid\": ")
        .integer(tid)
        .raw(", \"name\": \"")
        .raw(key)
        .raw("\", \"args\": {\"name\": ")
        .str(name)
        .raw("}}");
  };
  if (!slot_tracks.empty()) metadata(2, 0, "process_name", "server slots");
  metadata(3, 0, "process_name", "requests");
  for (const auto& [tid, track] : slot_tracks) {
    metadata(2, tid, "thread_name",
             "server " + std::to_string(track.first) + " slot " +
                 std::to_string(track.second));
  }

  for (const Span& span : spans) {
    switch (span.kind) {
      case SpanKind::kService: {
        // One request per slot at a time, so adjacent B/E pairs per tid
        // are correctly nested; an open span emits B only (shown as
        // "did not finish").
        separate();
        buf.raw("{\"ph\": \"B\", \"pid\": 2, \"tid\": ")
            .integer(service_tid(span))
            .raw(", \"ts\": ")
            .integer(span.begin)
            .raw(", \"name\": \"service c")
            .integer(span.url_class)
            .raw("\", \"args\": {\"span_id\": ")
            .integer(span.id)
            .raw(", \"parent\": ")
            .integer(span.parent())
            .raw(", \"source_id\": ")
            .integer(span.source_id)
            .raw(", \"url_class\": ")
            .integer(span.url_class)
            .raw(", \"power_w\": ")
            .num(span.power_w.value())
            .raw("}}");
        if (!span.open()) {
          buf.raw(",\n{\"ph\": \"E\", \"pid\": 2, \"tid\": ")
              .integer(service_tid(span))
              .raw(", \"ts\": ")
              .integer(span.end)
              .raw(", \"name\": \"service c")
              .integer(span.url_class)
              .raw("\", \"args\": {\"outcome\": ")
              .str(span.outcome)
              .raw("}}");
        }
        break;
      }
      case SpanKind::kRequest:
        separate();
        write_chrome_async(buf, span, "request", "request");
        break;
      case SpanKind::kQueue:
        separate();
        write_chrome_async(buf, span, "queue", "queue");
        break;
      case SpanKind::kFirewall:
      case SpanKind::kLbPick:
        break;
    }
    buf.spill(out);
  }
  if (spans_->dropped() > 0) {
    separate();
    buf.raw("{\"ph\": \"i\", \"s\": \"g\", \"pid\": 3, \"tid\": 0, "
            "\"ts\": 0, \"name\": \"SpanTruncated\", \"args\": "
            "{\"dropped\": ")
        .integer(spans_->dropped())
        .raw("}}");
  }
  buf.raw("\n]}\n");
  buf.flush(out);
}

}  // namespace dope::obs
