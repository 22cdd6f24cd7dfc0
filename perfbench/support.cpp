#include "support.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t SpanLog::begin(std::string name, std::uint64_t parent) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, std::move(name), at(Clock::now()), -1});
  return id;
}

void SpanLog::end(std::uint64_t id) {
  spans_.at(id - 1).end_ns = at(Clock::now());
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t parent,
                           Clock::time_point start, Clock::time_point end) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, std::move(name), at(start), at(end)});
  return id;
}

std::vector<std::int64_t> SpanLog::self_times() const {
  // Children by parent, in start order (ids are issued in start order).
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children.at(spans_[i].parent - 1).push_back(i);
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::size_t>& kids = children[i];
    std::sort(kids.begin(), kids.end(), [this](std::size_t a, std::size_t b) {
      return spans_[a].start_ns < spans_[b].start_ns;
    });
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union so far
    for (const std::size_t k : kids) {
      const std::int64_t lo = std::max(spans_[k].start_ns, reach);
      const std::int64_t hi = std::min(spans_[k].end_ns, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void SpanLog::write_jsonl(std::ostream& out) const {
  const std::vector<std::int64_t> self = self_times();
  // name -> {count, total, self}; std::map keeps the summary ordered.
  std::map<std::string, std::array<std::int64_t, 3>> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": ";
    dope::obs::write_json_string(out, s.name);
    out << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i] << "}\n";
    auto& row = by_name[s.name];
    row[0] += 1;
    row[1] += s.end_ns - s.start_ns;
    row[2] += self[i];
  }
  for (const auto& [name, row] : by_name) {
    out << "{\"summary\": ";
    dope::obs::write_json_string(out, name);
    out << ", \"count\": " << row[0] << ", \"total_ns\": " << row[1]
        << ", \"self_ns\": " << row[2] << "}\n";
  }
}

namespace {

void append_counts(std::string& out, const char* tag,
                   const dope::metrics::OutcomeCounts& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s=%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 " ",
                tag, c.completed, c.dropped_by_limit, c.blocked_by_firewall,
                c.rejected_queue_full, c.timed_out, c.failed_outage,
                c.dropped_network);
  out += buf;
}

}  // namespace

std::string digest_text(const dope::scenario::ScenarioResult& r) {
  std::string out;
  append_counts(out, "normal", r.normal_counts);
  append_counts(out, "attack", r.attack_counts);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "utility_j=%.17g battery_j=%.17g violation_slots=%" PRIu64
                " min_level=%zu p99_ms=%.17g",
                r.energy.utility_total().value(), r.energy.battery.value(),
                r.slot_stats.violation_slots, r.min_level_seen, r.p99_ms);
  out += buf;
  return out;
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::uint64_t terminal_requests(const dope::scenario::ScenarioResult& r) {
  return r.normal_counts.terminal() + r.attack_counts.terminal();
}

}  // namespace perfbench
