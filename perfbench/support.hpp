// Host-side measurement helpers for the whole-simulator benchmark:
// wall clocks, the in-memory span log of the traced run, the digest of a
// run's simulated outputs, and a byte-counting export sink.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <streambuf>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Median of a non-empty sample (copied; the input keeps its order).
double median(std::vector<double> values);

/// One host-time interval of the traced run. `parent` is 0 for a root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;  // since the log's epoch
  std::int64_t end_ns = -1;   // -1 while open
};

/// Spans kept in memory for the whole traced run and written out at the
/// end, so recording costs one clock read and one vector slot per edge.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  std::uint64_t begin(std::string name, std::uint64_t parent);
  void end(std::uint64_t id);
  /// Records an already-measured interval, e.g. a window whose bounds
  /// were taken with the clock reads that also fed a histogram.
  std::uint64_t add(std::string name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: its duration minus the union of its children's
  /// intervals (clipped to it). Indexed like `spans()`.
  std::vector<std::int64_t> self_times() const;

  /// One JSON object per span per line, then one per span name with the
  /// summed total and self time.
  void write_jsonl(std::ostream& out) const;

 private:
  std::int64_t at(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent)
      : log_(log), id_(log.begin(std::move(name), parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Canonical text of the simulated outputs the correctness gate
/// compares: normal and attack outcome counts, utility and battery
/// joules, violation slots, the deepest DVFS level, and p99 latency,
/// with every double printed as %.17g.
std::string digest_text(const dope::scenario::ScenarioResult& r);

/// 64-bit FNV-1a of `text`, as 16 lowercase hex digits.
std::string fnv1a_hex(const std::string& text);

/// Requests that reached a terminal outcome, normal plus attack.
std::uint64_t terminal_requests(const dope::scenario::ScenarioResult& r);

/// A stream buffer that discards what it is given and counts the bytes,
/// so exports are serialised in full without touching the disk.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

}  // namespace perfbench
