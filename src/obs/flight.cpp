#include "obs/flight.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/forensics.hpp"
#include "obs/json.hpp"

namespace dope::obs {

namespace {

/// Trace events snapshotted into each incident (the tail ending at the
/// trigger).
constexpr std::size_t kTraceTail = 64;
/// Open spans listed per incident (the full open count is always
/// reported).
constexpr std::size_t kOpenSpanCap = 32;
/// Suspect ranking depth in the forensics section.
constexpr std::size_t kForensicsTopK = 5;
/// SLO objective applied per URL class: a request breaches when its
/// latency exceeds this or it did not complete.
constexpr double kSloLatencyMs = 250.0;
/// Error budget (allowed breach fraction) the burn rate is measured
/// against: burn 1.0 = breaching exactly at budget.
constexpr double kSloErrorBudget = 0.01;

/// Deterministic short rendering for detail strings.
std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Payload lookup in a trace event's numeric fields.
bool find_num(const EventView& e, std::string_view key, double* out) {
  for (const auto& [k, v] : e.num) {
    if (key == k) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::string find_str(const EventView& e, std::string_view key) {
  for (const auto& [k, v] : e.str) {
    if (key == k) return std::string(v);
  }
  return {};
}

/// Nearest-rank p50, p95 and p99 of `samples` (0 when empty), selected
/// instead of sorted: p50 by `std::nth_element`, then each higher rank
/// within the partition above the previous one. Reorders `samples`.
std::array<double, 3> slo_percentiles(std::vector<double>& samples) {
  constexpr std::array<double, 3> kPercents = {50, 95, 99};
  std::array<double, 3> out{};
  if (samples.empty()) return out;
  const double n = static_cast<double>(samples.size());
  auto from = samples.begin();
  for (std::size_t k = 0; k < kPercents.size(); ++k) {
    const double rank = std::ceil(kPercents[k] / 100.0 * n);
    const auto idx =
        static_cast<std::ptrdiff_t>(std::clamp(rank - 1.0, 0.0, n - 1.0));
    const auto at = samples.begin() + idx;
    if (at >= from) {
      std::nth_element(from, at, samples.end());
      from = at + 1;
    }
    out[k] = *at;
  }
  return out;
}

}  // namespace

FlightRecorder::FlightRecorder(const TimeSeriesStore* store,
                               const TraceRecorder* trace,
                               const SpanTracer* spans)
    : store_(store), trace_(trace), spans_(spans) {}

void FlightRecorder::set_run_context(FlightRunContext context) {
  context_ = std::move(context);
}

void FlightRecorder::set_suspect_classes(
    std::vector<std::uint32_t> classes) {
  suspect_classes_ = std::move(classes);
}

void FlightRecorder::on_trace_event(const EventView& e) {
  switch (e.type) {
    case EventType::kBreakerTrip: {
      double zone = -1.0;
      find_num(e, "zone", &zone);
      double utility = 0.0;
      double rated = 0.0;
      std::string detail = e.source;
      if (find_num(e, "utility_w", &utility) &&
          find_num(e, "rated_w", &rated)) {
        detail += " utility_w=" + format_value(utility) +
                  " rated_w=" + format_value(rated);
      }
      capture(e.t, "BreakerTrip", detail, static_cast<int>(zone));
      return;
    }
    case EventType::kBudgetViolation: {
      double zone = -1.0;
      find_num(e, "zone", &zone);
      const int z = static_cast<int>(zone);
      const std::int64_t slot_idx =
          context_.slot > 0 ? e.t / context_.slot : e.t;
      // A violation one slot after the previous one (same zone) is the
      // same incident still burning, not a new onset.
      const auto it = last_violation_slot_.find(z);
      const bool onset =
          it == last_violation_slot_.end() || it->second < slot_idx - 1;
      last_violation_slot_[z] = slot_idx;
      if (!onset) return;
      double overshoot = 0.0;
      find_num(e, "overshoot_w", &overshoot);
      capture(e.t, "BudgetViolation",
              "overshoot_w=" + format_value(overshoot), z);
      return;
    }
    case EventType::kAlertRaised: {
      double zone = -1.0;
      find_num(e, "zone", &zone);
      capture(e.t, "AlertRaised", find_str(e, "rule"),
              static_cast<int>(zone));
      return;
    }
    default:
      return;
  }
}

void FlightRecorder::on_audit_failure(Time t, std::string_view check,
                                      std::string_view message) {
  std::string detail(check);
  if (!message.empty()) {
    detail += ": ";
    detail += message;
  }
  capture(t < 0 ? 0 : t, "AuditFailure", detail, -1);
}

void FlightRecorder::dump_now(Time t, std::string_view reason) {
  capture(t, "ManualDump", std::string(reason), -1);
}

void FlightRecorder::capture(Time t, const char* trigger,
                             const std::string& detail, int zone) {
  const std::int64_t slot_idx = context_.slot > 0 ? t / context_.slot : t;
  if (last_capture_slot_ >= 0 && slot_idx == last_capture_slot_) {
    ++deduped_;
    return;
  }
  last_capture_slot_ = slot_idx;
  ++triggers_;
  if (incidents_.size() >= kMaxIncidents) {
    ++dropped_;
    return;
  }

  std::ostringstream out;
  out << "{\n      \"id\": " << (incidents_.size() + 1)
      << ",\n      \"t_us\": " << t << ", \"t_s\": ";
  write_json_number(out, to_seconds(t));
  out << ", \"slot_index\": " << slot_idx << ",\n      \"trigger\": ";
  write_json_string(out, trigger);
  out << ", \"detail\": ";
  write_json_string(out, detail);
  out << ", \"zone\": " << zone;

  out << ",\n      \"series\": ";
  if (store_ != nullptr) {
    store_->write_json(out);
  } else {
    out << "{}";
  }

  JsonBuf records;
  records.raw(",\n      \"trace_tail\": [");
  if (trace_ != nullptr) {
    const auto& events = trace_->events();
    const std::size_t n = std::min(kTraceTail, events.size());
    for (std::size_t k = events.size() - n; k < events.size(); ++k) {
      if (k > events.size() - n) records.raw(',');
      records.raw("\n        ");
      write_jsonl_event(records, events[k]);
    }
    if (n > 0) records.raw("\n      ");
  }
  records.raw(']');

  records.raw(",\n      \"open_spans\": [");
  std::size_t open_total = 0;
  if (spans_ != nullptr) {
    std::size_t listed = 0;
    for (const Span& span : spans_->spans()) {
      if (!span.open()) continue;
      ++open_total;
      if (listed >= kOpenSpanCap) continue;
      if (listed > 0) records.raw(',');
      records.raw("\n        ");
      write_span_begin_jsonl(records, span);
      ++listed;
    }
    if (listed > 0) records.raw("\n      ");
  }
  records.raw("], \"open_span_count\": ").integer(open_total);
  records.flush(out);

  out << ",\n      \"forensics\": ";
  if (spans_ != nullptr && trace_ != nullptr) {
    const Forensics forensics = Forensics::build(*spans_, *trace_, t);
    out << "{\"total_joules\": ";
    write_json_number(out, forensics.total_joules().value());
    out << ", \"violation_events\": " << forensics.violation_events()
        << ", \"suspects\": [";
    const std::vector<SourceStats> top =
        forensics.top_by_joules(kForensicsTopK);
    for (std::size_t i = 0; i < top.size(); ++i) {
      const SourceStats& s = top[i];
      if (i > 0) out << ',';
      const bool suspicious =
          std::find(suspect_classes_.begin(), suspect_classes_.end(),
                    s.dominant_class) != suspect_classes_.end();
      out << "\n        {\"source_id\": " << s.source_id
          << ", \"requests\": " << s.requests
          << ", \"completed\": " << s.completed << ", \"joules\": ";
      write_json_number(out, s.joules.value());
      out << ", \"occupancy_ms\": ";
      write_json_number(out, s.occupancy_ms);
      out << ", \"violation_overlaps\": " << s.violation_overlaps
          << ", \"dominant_class\": " << s.dominant_class
          << ", \"dominant_zone\": " << s.dominant_zone
          << ", \"suspicious\": " << (suspicious ? "true" : "false")
          << '}';
    }
    if (!top.empty()) out << "\n      ";
    out << "]}";
  } else {
    out << "null";
  }
  out << "\n    }";
  incidents_.push_back(out.str());
}

void FlightRecorder::write_slo_json(std::ostream& out) const {
  if (spans_ == nullptr) {
    out << "null";
    return;
  }
  // Per-URL-class latency + completion rollup over closed root request
  // spans. std::map: classes export in sorted order.
  struct ClassStats {
    std::vector<double> lat_ms;
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t breaches = 0;
  };
  std::map<std::uint32_t, ClassStats> classes;
  for (const Span& span : spans_->spans()) {
    if (span.kind != SpanKind::kRequest || span.open()) continue;
    ClassStats& c = classes[span.url_class];
    ++c.requests;
    const bool completed = std::string_view(span.outcome) == "completed";
    if (completed) ++c.completed;
    const double lat_ms =
        static_cast<double>(span.end - span.begin) / 1000.0;
    c.lat_ms.push_back(lat_ms);
    if (!completed || lat_ms > kSloLatencyMs) ++c.breaches;
  }
  out << "{\"objective_ms\": ";
  write_json_number(out, kSloLatencyMs);
  out << ", \"error_budget\": ";
  write_json_number(out, kSloErrorBudget);
  out << ", \"classes\": [";
  bool first = true;
  for (auto& [url_class, c] : classes) {
    if (!first) out << ',';
    first = false;
    const std::array<double, 3> pct = slo_percentiles(c.lat_ms);
    const double requests = static_cast<double>(c.requests);
    const double breach_rate =
        c.requests ? static_cast<double>(c.breaches) / requests : 0.0;
    const double burn = breach_rate / kSloErrorBudget;
    out << "\n    {\"url_class\": " << url_class
        << ", \"requests\": " << c.requests
        << ", \"completed\": " << c.completed
        << ", \"breaches\": " << c.breaches << ", \"p50_ms\": ";
    write_json_number(out, pct[0]);
    out << ", \"p95_ms\": ";
    write_json_number(out, pct[1]);
    out << ", \"p99_ms\": ";
    write_json_number(out, pct[2]);
    out << ", \"compliance\": ";
    write_json_number(out, 1.0 - breach_rate);
    out << ", \"burn_rate\": ";
    write_json_number(out, burn);
    out << '}';
  }
  if (!classes.empty()) out << "\n  ";
  out << "]}";
}

void FlightRecorder::write_json(std::ostream& out) const {
  out << "{\n  \"dope_incident_bundle\": 1,\n  \"run\": {\"seed\": ";
  // Seed as a decimal string: JSON readers that funnel numbers through
  // a double would corrupt seeds above 2^53.
  char seed_buf[24];
  std::snprintf(seed_buf, sizeof(seed_buf), "\"%" PRIu64 "\"",
                context_.seed);
  out << seed_buf;
  out << ", \"scheme\": ";
  write_json_string(out, context_.scheme);
  out << ", \"slot_us\": " << context_.slot
      << ", \"duration_us\": " << context_.duration << ", \"label\": ";
  write_json_string(out, context_.label);
  out << "},\n  \"triggers\": " << triggers_
      << ", \"deduped\": " << deduped_ << ", \"dropped\": " << dropped_
      << ",\n  \"slo\": ";
  write_slo_json(out);
  out << ",\n  \"incidents\": [";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    if (i > 0) out << ',';
    out << "\n    " << incidents_[i];
  }
  if (dropped_ > 0) {
    if (!incidents_.empty()) out << ',';
    out << "\n    {\"type\": \"IncidentTruncated\", \"dropped\": "
        << dropped_ << ", \"cap\": " << kMaxIncidents << '}';
  }
  if (!incidents_.empty() || dropped_ > 0) out << "\n  ";
  out << "]\n}\n";
}

}  // namespace dope::obs
