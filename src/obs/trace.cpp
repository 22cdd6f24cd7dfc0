#include "obs/trace.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <new>
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

void EventLog::push_back(const TraceEvent& e) {
  Header h;
  h.t = e.t;
  h.source = e.source;
  h.type = static_cast<std::uint8_t>(e.type);
  h.num_count = static_cast<std::uint8_t>(e.num.size());
  h.str_count = static_cast<std::uint8_t>(e.str.size());
  const std::size_t bytes =
      e.num.size() * sizeof(NumField) + e.str.size() * sizeof(StrField);
  if (bytes > 0) {
    std::byte* run = reserve_run(bytes / 8, h.fields);
    for (const NumField& f : e.num) {
      ::new (run) NumField(f);
      run += sizeof(NumField);
    }
    for (const StrField& f : e.str) {
      ::new (run) StrField{f.key, intern(f.value)};
      run += sizeof(StrField);
    }
  }
  headers_.push_back(h);
}

std::byte* EventLog::reserve_run(std::size_t words, std::uint32_t& at) {
  if (field_top_ + words > kWordsPerBlock) {
    if (field_blocks_.empty()) field_blocks_.reserve(kBlockTableReserve);
    field_blocks_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(kFieldBlockBytes));
    field_top_ = 0;
  }
  const std::size_t word =
      (field_blocks_.size() - 1) * kWordsPerBlock + field_top_;
  DOPE_REQUIRE(word <= std::numeric_limits<std::uint32_t>::max(),
               "event log over 32 GiB of fields");
  at = static_cast<std::uint32_t>(word);
  std::byte* run = field_blocks_.back().get() + field_top_ * 8;
  field_top_ += words;
  return run;
}

std::string_view EventLog::intern(std::string_view value) {
  auto it = interned_.find(value);
  if (it == interned_.end()) it = interned_.emplace(value).first;
  return *it;
}

EventView EventLog::operator[](std::size_t i) const {
  const Header& h = headers_[i];
  EventView v;
  v.t = h.t;
  v.type = static_cast<EventType>(h.type);
  v.source = h.source;
  const std::byte* run =
      h.num_count + h.str_count == 0
          ? nullptr
          : field_blocks_[h.fields / kWordsPerBlock].get() +
                (h.fields % kWordsPerBlock) * 8;
  if (h.num_count > 0) {
    v.num = {std::launder(reinterpret_cast<const NumField*>(run)),
             h.num_count};
  }
  if (h.str_count > 0) {
    v.str = {std::launder(reinterpret_cast<const StrField*>(
                 run + h.num_count * sizeof(NumField))),
             h.str_count};
  }
  return v;
}

TraceRecorder::TraceRecorder(TraceConfig config) : config_(config) {}

void TraceRecorder::record(const TraceEvent& event) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(event.type)];
  if (events_.size() < config_.max_events) events_.push_back(event);
  if (listener_) listener_(event);
}

std::size_t TraceRecorder::distinct_types() const {
  std::size_t n = 0;
  for (const auto c : counts_) {
    if (c > 0) ++n;
  }
  return n;
}

namespace {

void write_payload_fields(JsonBuf& buf, const EventView& e) {
  for (const auto& [key, value] : e.num) {
    buf.raw(", ").str(key).raw(": ").num(value);
  }
  for (const auto& [key, value] : e.str) {
    buf.raw(", ").str(key).raw(": ").str(value);
  }
}

}  // namespace

void write_jsonl_event(JsonBuf& buf, const EventView& e) {
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
  for (const EventView e : events_) {
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
  for (const EventView e : events_) {
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
  for (const EventView e : events_) {
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
