#include "obs/trace.hpp"

#include <map>
#include <ostream>
#include <string_view>

#include "obs/json.hpp"

namespace dope::obs {

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kRequestForwarded: return "RequestForwarded";
    case EventType::kRequestDropped: return "RequestDropped";
    case EventType::kBudgetViolation: return "BudgetViolation";
    case EventType::kLevelViolation: return "LevelViolation";
    case EventType::kThrottleApplied: return "ThrottleApplied";
    case EventType::kBatteryDischarge: return "BatteryDischarge";
    case EventType::kBatteryCharge: return "BatteryCharge";
    case EventType::kBreakerTrip: return "BreakerTrip";
    case EventType::kOutageEnd: return "OutageEnd";
    case EventType::kFirewallBan: return "FirewallBan";
    case EventType::kAttackPhase: return "AttackPhase";
    case EventType::kAlertRaised: return "AlertRaised";
    case EventType::kAlertCleared: return "AlertCleared";
  }
  return "?";
}

TraceRecorder::TraceRecorder(TraceConfig config) : config_(config) {}

void TraceRecorder::record(TraceEvent event) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(event.type)];
  const bool stored = events_.size() < config_.max_events;
  if (stored) events_.push_back(std::move(event));
  if (listener_) listener_(stored ? events_.back() : event);
}

std::size_t TraceRecorder::distinct_types() const {
  std::size_t n = 0;
  for (const auto c : counts_) {
    if (c > 0) ++n;
  }
  return n;
}

namespace {

void write_payload_fields(JsonBuf& buf, const TraceEvent& e) {
  for (const auto& [key, value] : e.num) {
    buf.raw(", ").str(key).raw(": ").num(value);
  }
  for (const auto& [key, value] : e.str) {
    buf.raw(", ").str(key).raw(": ").str(value);
  }
}

}  // namespace

void write_jsonl_event(JsonBuf& buf, const TraceEvent& e) {
  buf.raw("{\"t_us\": ")
      .integer(e.t)
      .raw(", \"t_s\": ")
      .seconds(e.t)
      .raw(", \"type\": ")
      .str(event_type_name(e.type))
      .raw(", \"source\": ")
      .str(e.source);
  write_payload_fields(buf, e);
  buf.raw('}');
}

void TraceRecorder::write_jsonl(std::ostream& out) const {
  JsonBuf buf;
  for (const auto& e : events_) {
    write_jsonl_event(buf, e);
    buf.raw('\n');
    buf.spill(out);
  }
  write_jsonl_trailer(buf);
  buf.flush(out);
}

void TraceRecorder::write_jsonl_trailer(JsonBuf& buf) const {
  if (dropped() == 0) return;
  buf.raw("{\"type\": \"TraceTruncated\", \"dropped\": ")
      .integer(dropped())
      .raw(", \"cap\": ")
      .integer(config_.max_events)
      .raw("}\n");
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  JsonBuf buf;
  buf.raw("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  write_chrome_body(out, buf, first);
  buf.raw("\n]}\n");
  buf.flush(out);
}

void TraceRecorder::write_chrome_body(std::ostream& out, JsonBuf& buf,
                                      bool& first) const {
  const auto separate = [&] {
    if (!first) buf.raw(",\n");
    first = false;
  };
  // One synthetic thread per emitting component so each gets its own row.
  std::map<std::string_view, int> tids;
  for (const auto& e : events_) {
    tids.emplace(e.source, 0);
  }
  int next_tid = 1;
  for (auto& [source, tid] : tids) tid = next_tid++;

  for (const auto& [source, tid] : tids) {
    separate();
    buf.raw("{\"ph\": \"M\", \"pid\": 1, \"tid\": ")
        .integer(tid)
        .raw(", \"name\": \"thread_name\", \"args\": {\"name\": ")
        .str(source)
        .raw("}}");
  }
  for (const auto& e : events_) {
    separate();
    // Instant event, thread scope; ts is already microseconds.
    buf.raw("{\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": ")
        .integer(tids[e.source])
        .raw(", \"ts\": ")
        .integer(e.t)
        .raw(", \"name\": ")
        .str(event_type_name(e.type))
        .raw(", \"args\": {");
    bool first_arg = true;
    for (const auto& [key, value] : e.num) {
      if (!first_arg) buf.raw(", ");
      first_arg = false;
      buf.str(key).raw(": ").num(value);
    }
    for (const auto& [key, value] : e.str) {
      if (!first_arg) buf.raw(", ");
      first_arg = false;
      buf.str(key).raw(": ").str(value);
    }
    buf.raw("}}");
    buf.spill(out);
  }
  if (dropped() > 0) {
    separate();
    buf.raw("{\"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 0, "
            "\"ts\": 0, \"name\": \"TraceTruncated\", \"args\": "
            "{\"dropped\": ")
        .integer(dropped())
        .raw("}}");
  }
}

}  // namespace dope::obs
