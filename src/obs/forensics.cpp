#include "obs/forensics.hpp"

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "obs/json.hpp"

namespace dope::obs {

namespace {

/// Build-time accumulator for one source. Class and zone sums are
/// indexed by class id and zone (small dense ids) and grow on first use;
/// an entry never reached stays 0.
struct SourceAccum {
  SourceStats stats;
  std::vector<Joules> class_joules;
  std::vector<std::uint64_t> class_requests;
  std::vector<Joules> zone_joules;
};

/// `v[i]`, growing `v` with zeros to reach it.
template <class T>
T& grown_at(std::vector<T>& v, std::size_t i) {
  if (i >= v.size()) v.resize(i + 1);
  return v[i];
}

/// Index of the largest entry above 0, the lowest index on ties; -1
/// when no entry is above 0. A 0 entry can never win the strict `>`.
template <class T>
std::int64_t first_max_above_zero(const std::vector<T>& v) {
  std::int64_t best = -1;
  T best_v{};
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] > best_v) {
      best_v = v[i];
      best = static_cast<std::int64_t>(i);
    }
  }
  return best;
}

}  // namespace

Forensics Forensics::build(const SpanTracer& spans,
                           const TraceRecorder& trace, Time horizon) {
  Forensics out;

  // Violation instants, in trace (= time) order, for binary search.
  std::vector<Time> violations;
  for (const EventView e : trace.events()) {
    if (e.type == EventType::kBudgetViolation) violations.push_back(e.t);
  }
  out.violation_events_ = violations.size();

  if (horizon < 0) {
    for (const Span& span : spans.spans()) {
      horizon = std::max(horizon, span.begin);
      horizon = std::max(horizon, span.end);
    }
  }

  // One accumulator per source, in first-seen order. `slot_of` maps a
  // source id to its accumulator and is never iterated, so hash order
  // cannot reach the output. Sums accumulate in span order, so every
  // floating-point total adds its terms in the same order.
  std::vector<SourceAccum> accum;
  std::unordered_map<std::uint32_t, std::size_t> slot_of;
  for (const Span& span : spans.spans()) {
    const auto [at, added] = slot_of.try_emplace(span.source_id, accum.size());
    if (added) accum.emplace_back().stats.source_id = span.source_id;
    SourceAccum& a = accum[at->second];
    switch (span.kind) {
      case SpanKind::kRequest: {
        ++a.stats.requests;
        ++grown_at(a.class_requests, span.url_class);
        if (std::string_view(span.outcome) == "completed") {
          ++a.stats.completed;
        }
        break;
      }
      case SpanKind::kService: {
        const Time end = span.open() ? horizon : span.end;
        const Duration held = std::max<Duration>(end - span.begin, 0);
        a.stats.joules += span.power_w * held;
        a.stats.occupancy_ms += to_seconds(held) * 1e3;
        grown_at(a.class_joules, span.url_class) += span.power_w * held;
        if (span.zone >= 0) {
          grown_at(a.zone_joules, static_cast<std::size_t>(span.zone)) +=
              span.power_w * held;
        }
        const auto lo = std::lower_bound(violations.begin(),
                                         violations.end(), span.begin);
        const auto hi =
            std::upper_bound(violations.begin(), violations.end(), end);
        a.stats.violation_overlaps +=
            static_cast<std::uint64_t>(hi - lo);
        break;
      }
      case SpanKind::kFirewall:
      case SpanKind::kLbPick:
      case SpanKind::kQueue:
        break;
    }
  }

  out.sources_.reserve(accum.size());
  for (SourceAccum& a : accum) {
    // Dominant class: by joules when the source reached a slot at all,
    // by request count otherwise. Ties break to the lower class id.
    std::int64_t cls = first_max_above_zero(a.class_joules);
    if (cls < 0) cls = first_max_above_zero(a.class_requests);
    if (cls >= 0) a.stats.dominant_class = static_cast<std::uint32_t>(cls);
    // Dominant zone mirrors the class logic (joules only — a request
    // that never reached a slot has no zone attribution). Ties break to
    // the lower zone index.
    a.stats.dominant_zone =
        static_cast<std::int32_t>(first_max_above_zero(a.zone_joules));
    out.sources_.push_back(a.stats);
  }
  std::sort(out.sources_.begin(), out.sources_.end(),
            [](const SourceStats& a, const SourceStats& b) {
              return a.source_id < b.source_id;
            });
  for (const SourceStats& s : out.sources_) out.total_joules_ += s.joules;
  return out;
}

std::vector<SourceStats> Forensics::top_by_joules(std::size_t k) const {
  std::vector<SourceStats> ranked = sources_;
  std::sort(ranked.begin(), ranked.end(),
            [](const SourceStats& a, const SourceStats& b) {
              if (a.joules > b.joules) return true;
              if (a.joules < b.joules) return false;
              return a.source_id < b.source_id;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

void Forensics::write_json(std::ostream& out) const {
  out << "{\n  \"total_joules\": ";
  write_json_number(out, total_joules_.value());
  out << ",\n  \"violation_events\": " << violation_events_
      << ",\n  \"sources\": " << sources_.size() << ",\n  \"ranking\": [";
  const auto ranked = top_by_joules(sources_.size());
  bool first = true;
  for (const SourceStats& s : ranked) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"source_id\": " << s.source_id
        << ", \"requests\": " << s.requests
        << ", \"completed\": " << s.completed << ", \"joules\": ";
    write_json_number(out, s.joules.value());
    out << ", \"occupancy_ms\": ";
    write_json_number(out, s.occupancy_ms);
    out << ", \"violation_overlaps\": " << s.violation_overlaps
        << ", \"dominant_class\": " << s.dominant_class;
    // Emitted only for zoned (multi-zone) runs, so standalone-cluster
    // forensics exports stay byte-identical.
    if (s.dominant_zone >= 0) {
      out << ", \"dominant_zone\": " << s.dominant_zone;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace dope::obs
