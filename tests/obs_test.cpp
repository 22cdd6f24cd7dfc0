// Tests for the observability subsystem: metrics registry, structured
// trace recorder + exports, alert watchdog, and the end-to-end guarantee
// that attaching a hub never perturbs simulation results.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "scenario/scenario.hpp"

namespace dope::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, EncodeKeyCanonicalisesLabelOrder) {
  EXPECT_EQ(encode_key("net.dropped", {}), "net.dropped");
  const std::string ab =
      encode_key("net.dropped", {{"a", "1"}, {"b", "2"}});
  const std::string ba =
      encode_key("net.dropped", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab, "net.dropped{a=\"1\",b=\"2\"}");
}

TEST(Metrics, RegistryReturnsStableDeduplicatedInstruments) {
  Registry reg;
  Counter& a = reg.counter("requests", {{"pool", "suspect"}});
  Counter& b = reg.counter("requests", {{"pool", "suspect"}});
  Counter& c = reg.counter("requests", {{"pool", "innocent"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc();
  a.inc(2.5);
  EXPECT_DOUBLE_EQ(b.value(), 3.5);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, RegistryRejectsKindMismatch) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histo("x"), std::logic_error);
}

TEST(Metrics, FindLooksUpByEncodedKeyWithoutCreating) {
  Registry reg;
  reg.counter("hits", {{"pool", "suspect"}}).inc(7);
  const Counter* found = reg.find_counter("hits{pool=\"suspect\"}");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->value(), 7.0);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("hits{pool=\"suspect\"}"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, GaugeTracksExtremes) {
  Registry reg;
  Gauge& g = reg.gauge("soc");
  EXPECT_FALSE(g.written());
  g.set(0.5);
  g.set(0.2);
  g.set(0.8);
  EXPECT_TRUE(g.written());
  EXPECT_DOUBLE_EQ(g.value(), 0.8);
  EXPECT_DOUBLE_EQ(g.min_seen(), 0.2);
  EXPECT_DOUBLE_EQ(g.max_seen(), 0.8);
}

TEST(Metrics, HistoSummaryAndPercentiles) {
  Registry reg;
  Histo& h = reg.histo("overshoot_w");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Log2 buckets: percentiles are approximate but must stay inside the
  // observed range, be monotone, and land in the right factor-2 band.
  const double p50 = h.percentile(50);
  const double p99 = h.percentile(99);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST(Metrics, HistoHandlesNonPositiveValues) {
  Histo h;
  h.observe(0.0);
  h.observe(-5.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST(Metrics, WriteJsonEmitsAllSections) {
  Registry reg;
  reg.counter("hits", {{"pool", "suspect"}}).inc(3);
  reg.gauge("soc").set(0.75);
  reg.histo("lat_ms").observe(12.0);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histos\""), std::string::npos);
  EXPECT_NE(json.find("hits{pool=\\\"suspect\\\"}"), std::string::npos);
  EXPECT_NE(json.find("0.75"), std::string::npos);
}

TEST(Metrics, WriteJsonEmitsKeysSorted) {
  // The registry's instrument index is an unordered_map; write_json must
  // emit each section sorted by key so the export bytes never depend on
  // hash/allocator order. Create instruments in a scrambled order and
  // lock in sorted emission.
  Registry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc();
  reg.counter("mid", {{"pool", "suspect"}}).inc();
  reg.gauge("soc").set(0.5);
  reg.gauge("budget_w").set(640.0);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  const auto alpha = json.find("\"alpha\"");
  const auto mid = json.find("\"mid{pool=");
  const auto zeta = json.find("\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zeta);
  EXPECT_LT(json.find("\"budget_w\""), json.find("\"soc\""));
}

// ------------------------------------------------------------ json text

std::string printf_g12(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Flushes `buf` and returns what it held.
std::string drain(JsonBuf& buf) {
  std::ostringstream out;
  buf.flush(out);
  return out.str();
}

std::string json_number(double v) {
  JsonBuf buf;
  buf.num(v);
  return drain(buf);
}

std::string json_seconds(Time t) {
  JsonBuf buf;
  buf.seconds(t);
  return drain(buf);
}

std::string json_string(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

TEST(JsonText, NumberMatchesPrintfG12) {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1e-5,
      1e-4,
      0.1,
      1.0 / 3.0,
      -2.5,
      1e15,
      1e21,
      9007199254740991.0,  // 2^53 - 1
      9007199254740992.0,  // 2^53
      9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
      999999999999.0,      // 12 digits: the last fixed-notation integer
      1e12,
      123456789012.5,
  };
  // Integral payload values: counts, watts, ids, microsecond times.
  for (int i = 0; i <= 1000; ++i) values.push_back(i);
  for (double p = 1.0; p < 1e12; p *= 10.0) {
    values.push_back(p);
    values.push_back(p - 1.0);
    values.push_back(p + 1.0);
  }
  values.push_back(4294967295.0);   // 2^32 - 1
  values.push_back(2147483648.0);   // 2^31
  values.push_back(1'000'001.0);    // attack source ids
  // Seed-fixed random doubles: half arbitrary bit patterns (every
  // exponent, subnormals included), half at payload magnitudes.
  Rng rng(20191);
  for (int drawn = 0; drawn < 10'000;) {
    const double bits = std::bit_cast<double>(rng());
    if (!std::isfinite(bits)) continue;
    values.push_back(drawn % 2 == 0 ? bits : rng.uniform(-1e6, 1e6));
    ++drawn;
  }
  for (const double v : values) {
    ASSERT_EQ(json_number(v), printf_g12(v))
        << "bits " << std::hex << std::bit_cast<std::uint64_t>(v);
    ASSERT_EQ(json_number(-v), printf_g12(-v));
  }
}

TEST(JsonText, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  std::ostringstream out;
  write_json_number(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out.str(), "null");
}

TEST(JsonText, SecondsMatchTheDoublePath) {
  std::vector<Time> times = {0,
                             1,
                             99,
                             100,
                             999'999,
                             1'000'000,
                             1'000'001,
                             99'999'999'999,
                             100'000'000'000,
                             -5};
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    times.push_back(rng.uniform_int(-1000, 200'000'000'000));
  }
  for (Time t = 0; t < 3'000; ++t) times.push_back(t);
  for (const Time t : times) {
    ASSERT_EQ(json_seconds(t), json_number(to_seconds(t))) << "t=" << t;
  }
  EXPECT_EQ(json_seconds(1'500'000), "1.5");
  EXPECT_EQ(json_seconds(100), "0.0001");
  EXPECT_EQ(json_seconds(99), "9.9e-05");
}

TEST(JsonText, EscaperQuotesSpecialsAndPassesUtf8Through) {
  EXPECT_EQ(json_string(""), "\"\"");
  EXPECT_EQ(json_string("plain text"), "\"plain text\"");
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_string("l1\nl2\r\tx"), "\"l1\\nl2\\r\\tx\"");
  EXPECT_EQ(json_string("caf\xc3\xa9 \xe2\x82\xac"),
            "\"caf\xc3\xa9 \xe2\x82\xac\"");
  EXPECT_EQ(json_string("\x7f"), "\"\x7f\"");
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\n' || c == '\r' || c == '\t') continue;
    std::string in = "x";
    in += static_cast<char>(c);
    in += 'y';
    char expected[16];
    std::snprintf(expected, sizeof(expected), "\"x\\u%04xy\"", c);
    EXPECT_EQ(json_string(in), expected) << "byte " << c;
  }
  // The ostream overload is the same escaper.
  std::ostringstream out;
  write_json_string(out, std::string_view("q\"\0", 3));
  EXPECT_EQ(out.str(), "\"q\\\"\\u0000\"");
}

TEST(JsonText, BufferSpillsOnlyWholeBlocks) {
  std::ostringstream out;
  JsonBuf buf;
  buf.raw("{").integer(-42).raw(',').integer(std::uint64_t{255}, 16);
  buf.raw(',').num(0.5).raw(',').seconds(2'000'000).raw(',').str("k");
  buf.spill(out);
  EXPECT_EQ(out.str(), "");  // less than a block pending
  buf.raw('}');
  buf.flush(out);
  EXPECT_EQ(out.str(), "{-42,ff,0.5,2,\"k\"}");
  for (std::size_t i = 0; i < JsonBuf::kBlockBytes; ++i) buf.raw('x');
  buf.spill(out);
  EXPECT_EQ(out.str().size(), 18 + JsonBuf::kBlockBytes);
}

TEST(JsonText, BufferGrowsForOneLargeString) {
  // One append far past the first allocation, escapes included.
  std::string big(200 * 1024, 'a');
  for (std::size_t i = 0; i < big.size(); i += 997) big[i] = '\n';
  JsonBuf buf;
  buf.raw('[').str(big).raw(']');
  std::ostringstream out;
  buf.spill(out);  // more than a block pending
  EXPECT_EQ(out.str(), "[" + json_string(big) + "]");
  EXPECT_EQ(drain(buf), "");
}

TEST(JsonText, RecordStraddlingTheCapacityIsWhole) {
  // The first allocation holds a block and a quarter; fill up to just
  // below it so that each append of the record in turn is the one that
  // crosses it.
  const std::size_t first = JsonBuf::kBlockBytes + JsonBuf::kBlockBytes / 4;
  for (std::size_t fill = first - 64; fill <= first; ++fill) {
    JsonBuf buf;
    const std::string filler(fill, 'x');
    buf.raw(filler)
        .raw("{\"t_us\": ")
        .integer(Time{1'234'567})
        .raw(", \"t_s\": ")
        .seconds(1'234'567)
        .raw(", \"k\": ")
        .str("v\"\n")
        .raw(", \"n\": ")
        .num(0.1)
        .raw('}');
    const std::string expected =
        filler + "{\"t_us\": 1234567, \"t_s\": 1.234567, \"k\": " +
        json_string("v\"\n") + ", \"n\": 0.1}";
    ASSERT_EQ(drain(buf), expected) << "fill " << fill;
  }
}

TEST(JsonText, BufferStrIsTheStringEscaper) {
  std::vector<std::string> inputs = {"\"", "\\", "\x7f",
                                     "caf\xc3\xa9 \xe2\x82\xac", ""};
  for (int c = 0; c < 0x20; ++c) {
    inputs.push_back(std::string(1, static_cast<char>(c)));
  }
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte += static_cast<char>(c);
  inputs.push_back(every_byte);
  for (const std::string& in : inputs) {
    JsonBuf buf;
    buf.str(in);
    EXPECT_EQ(drain(buf), json_string(in)) << "input size " << in.size();
    std::ostringstream out;
    write_json_string(out, in);
    EXPECT_EQ(out.str(), json_string(in));
  }
}

TEST(JsonText, BufferIntegersAndSeconds) {
  JsonBuf buf;
  buf.integer(std::uint64_t{0xdeadbeef}, 16)
      .raw(' ')
      .integer(-255, 16)
      .raw(' ')
      .integer(std::numeric_limits<std::uint64_t>::max(), 16)
      .raw(' ')
      .integer(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(drain(buf),
            "deadbeef -ff ffffffffffffffff -9223372036854775808");
  const std::vector<std::pair<Time, std::string>> cases = {
      {99, "9.9e-05"},
      {100, "0.0001"},
      {99'999'999'999, "99999.999999"},
      {100'000'000'000, "100000"},
      {-1'500'000, "-1.5"},
  };
  for (const auto& [t, text] : cases) {
    JsonBuf one;
    one.seconds(t);
    const std::string got = drain(one);
    EXPECT_EQ(got, text) << "t=" << t;
    EXPECT_EQ(got, json_number(to_seconds(t))) << "t=" << t;
  }
}

// ------------------------------------------------------------------ trace

TraceEvent make_event(Time t, EventType type, const char* source) {
  TraceEvent e;
  e.t = t;
  e.type = type;
  e.source = source;
  return e;
}

TEST(Trace, CountsPerTypeAndDistinctTypes) {
  TraceRecorder rec;
  rec.record(make_event(1, EventType::kRequestForwarded, "edge"));
  rec.record(make_event(2, EventType::kRequestForwarded, "edge"));
  rec.record(make_event(3, EventType::kBudgetViolation, "cluster"));
  EXPECT_EQ(rec.recorded(), 3u);
  EXPECT_EQ(rec.count(EventType::kRequestForwarded), 2u);
  EXPECT_EQ(rec.count(EventType::kBudgetViolation), 1u);
  EXPECT_EQ(rec.count(EventType::kBreakerTrip), 0u);
  EXPECT_EQ(rec.distinct_types(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, CapDropsEventsLoudlyNotSilently) {
  TraceRecorder rec(TraceConfig{.max_events = 2});
  for (int i = 0; i < 5; ++i) {
    rec.record(make_event(i, EventType::kRequestForwarded, "edge"));
  }
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
  // Dropped events still count toward per-type stats.
  EXPECT_EQ(rec.count(EventType::kRequestForwarded), 5u);
  std::ostringstream out;
  rec.write_jsonl(out);
  EXPECT_NE(out.str().find("TraceTruncated"), std::string::npos);
  EXPECT_NE(out.str().find("\"dropped\": 3"), std::string::npos);
}

TEST(Trace, JsonlRoundTripsPayloadAndEscapes) {
  TraceRecorder rec;
  TraceEvent e = make_event(1'500'000, EventType::kThrottleApplied, "dpm");
  e.num.emplace_back("deficit_w", 42.5);
  e.str.emplace_back("mode", "uniform \"quoted\"");
  rec.record(std::move(e));
  std::ostringstream out;
  rec.write_jsonl(out);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"t_us\": 1500000"), std::string::npos);
  EXPECT_NE(line.find("\"t_s\": 1.5"), std::string::npos);
  EXPECT_NE(line.find("\"type\": \"ThrottleApplied\""), std::string::npos);
  EXPECT_NE(line.find("\"source\": \"dpm\""), std::string::npos);
  EXPECT_NE(line.find("\"deficit_w\": 42.5"), std::string::npos);
  EXPECT_NE(line.find("uniform \\\"quoted\\\""), std::string::npos);
}

TEST(Trace, ChromeExportLabelsOneRowPerSource) {
  TraceRecorder rec;
  rec.record(make_event(10, EventType::kRequestForwarded, "edge"));
  rec.record(make_event(20, EventType::kBatteryDischarge, "battery"));
  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"edge\""), std::string::npos);
  EXPECT_NE(json.find("\"battery\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 20"), std::string::npos);
}

TEST(Trace, EveryEventTypeHasAName) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    EXPECT_STRNE(event_type_name(static_cast<EventType>(i)), "?");
  }
}

TEST(Trace, FieldRunsPastABlockBoundaryReadBackIntact) {
  // Full runs (8 numeric and 2 string fields) do not divide a field
  // block evenly, so some run meets a block's tail it does not fit.
  constexpr std::size_t kRunBytes =
      kMaxNumFields * sizeof(NumField) + kMaxStrFields * sizeof(StrField);
  static_assert(kFieldBlockBytes % kRunBytes != 0);
  const std::size_t n = 3 * kFieldBlockBytes / kRunBytes;
  const char* const keys[kMaxNumFields] = {"a", "b", "c", "d",
                                           "e", "f", "g", "h"};
  TraceRecorder rec;
  for (std::size_t i = 0; i < n; ++i) {
    TraceEvent e = make_event(static_cast<Time>(i), EventType::kAlertRaised,
                              "watchdog");
    for (std::size_t k = 0; k < kMaxNumFields; ++k) {
      e.num.emplace_back(keys[k], static_cast<double>(i * 10 + k));
    }
    const std::string rule = "rule-" + std::to_string(i % 5);
    e.str.emplace_back("rule", rule);
    e.str.emplace_back("signal", "attack_rps");
    rec.record(e);
  }
  ASSERT_EQ(rec.events().size(), n);
  std::size_t i = 0;
  for (const EventView e : rec.events()) {
    ASSERT_EQ(e.t, static_cast<Time>(i));
    ASSERT_EQ(e.num.size(), kMaxNumFields);
    for (std::size_t k = 0; k < kMaxNumFields; ++k) {
      ASSERT_STREQ(e.num[k].key, keys[k]);
      ASSERT_EQ(e.num[k].value, static_cast<double>(i * 10 + k)) << i;
    }
    ASSERT_EQ(e.str.size(), 2u);
    ASSERT_EQ(e.str[0].value, "rule-" + std::to_string(i % 5)) << i;
    ASSERT_EQ(e.str[1].value, "attack_rps");
    ++i;
  }
  EXPECT_EQ(i, n);
}

TEST(Trace, EventPastTheCapReachesTheListenerWithItsPayload) {
  TraceRecorder rec(TraceConfig{.max_events = 1});
  std::vector<std::string> seen;
  rec.set_listener([&](const EventView& e) {
    std::string line = event_type_name(e.type);
    for (const auto& [key, value] : e.num) {
      line += ' ' + std::string(key) + '=' + std::to_string(value);
    }
    for (const auto& [key, value] : e.str) {
      line += ' ' + std::string(key) + '=' + std::string(value);
    }
    seen.push_back(line);
  });
  for (int i = 0; i < 2; ++i) {
    TraceEvent e = make_event(i, EventType::kBreakerTrip, "breaker");
    e.num.emplace_back("trips", i + 1);
    const std::string rule = "trip-" + std::to_string(i);
    e.str.emplace_back("rule", rule);
    rec.record(e);
  }
  EXPECT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.dropped(), 1u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], "BreakerTrip trips=2.000000 rule=trip-1");
}

TEST(Trace, StringValueOutlivesTheCallersString) {
  TraceRecorder rec;
  {
    // Longer than any small-string buffer, so it lives on the heap.
    auto value = std::make_unique<std::string>(
        "a rule name long enough to need the heap");
    TraceEvent e = make_event(7, EventType::kAlertRaised, "watchdog");
    e.str.emplace_back("rule", *value);
    rec.record(e);
    value.reset();
    // Reuse the freed memory, so a dangling view would read garbage.
    std::string other(40, 'x');
    EXPECT_EQ(other.size(), 40u);
  }
  std::ostringstream out;
  rec.write_jsonl(out);
  EXPECT_NE(out.str().find("\"rule\": \"a rule name long enough to need the "
                           "heap\""),
            std::string::npos)
      << out.str();
  EXPECT_EQ(rec.events()[0].str[0].value,
            "a rule name long enough to need the heap");
}

TEST(Trace, FieldsPastTheCapacityFailLoudly) {
  TraceEvent e;
  for (std::size_t k = 0; k < kMaxNumFields; ++k) {
    e.num.emplace_back("k", 1.0);
  }
  EXPECT_THROW(e.num.emplace_back("k", 1.0), std::invalid_argument);
  EXPECT_EQ(e.num.size(), kMaxNumFields);
  e.str = {{"a", "1"}, {"b", "2"}};
  EXPECT_THROW(e.str.emplace_back("c", "3"), std::invalid_argument);
  EXPECT_THROW((e.str = {{"a", "1"}, {"b", "2"}, {"c", "3"}}),
               std::invalid_argument);
}

// --------------------------------------------------------------- watchdog

TEST(Watchdog, RaisesOnlyAfterConsecutiveBreaches) {
  Watchdog dog;
  dog.add_rule({.name = "budget",
                .signal = "demand_w",
                .cmp = AlertCmp::kAbove,
                .threshold = 100.0,
                .consecutive = 3,
                .clear_after = 2});
  dog.observe("demand_w", 1, 150.0);
  dog.observe("demand_w", 2, 150.0);
  EXPECT_FALSE(dog.is_firing("budget"));
  // A clean window resets the streak.
  dog.observe("demand_w", 3, 50.0);
  dog.observe("demand_w", 4, 150.0);
  dog.observe("demand_w", 5, 150.0);
  EXPECT_FALSE(dog.is_firing("budget"));
  dog.observe("demand_w", 6, 150.0);
  EXPECT_TRUE(dog.is_firing("budget"));
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_EQ(dog.alerts()[0].raised_at, 6);
  EXPECT_DOUBLE_EQ(dog.alerts()[0].value, 150.0);
  EXPECT_EQ(dog.active_count(), 1u);
}

TEST(Watchdog, ClearsAfterCleanStreakAndRearms) {
  Watchdog dog;
  dog.add_rule({.name = "soc-low",
                .signal = "soc",
                .cmp = AlertCmp::kBelow,
                .threshold = 0.25,
                .consecutive = 1,
                .clear_after = 2});
  dog.observe("soc", 1, 0.1);
  EXPECT_TRUE(dog.is_firing("soc-low"));
  dog.observe("soc", 2, 0.5);
  EXPECT_TRUE(dog.is_firing("soc-low"));  // one clean window is not enough
  dog.observe("soc", 3, 0.5);
  EXPECT_FALSE(dog.is_firing("soc-low"));
  EXPECT_EQ(dog.alerts()[0].cleared_at, 3);
  // Re-armed: a fresh breach opens a second alert.
  dog.observe("soc", 4, 0.1);
  EXPECT_TRUE(dog.is_firing("soc-low"));
  EXPECT_EQ(dog.alerts().size(), 2u);
  EXPECT_EQ(dog.active_count(), 1u);
}

TEST(Watchdog, SignalsAreIndependent) {
  Watchdog dog;
  dog.add_rule({.name = "a", .signal = "x", .threshold = 1.0});
  dog.add_rule({.name = "b", .signal = "y", .threshold = 1.0});
  dog.observe("x", 1, 5.0);
  EXPECT_TRUE(dog.is_firing("a"));
  EXPECT_FALSE(dog.is_firing("b"));
  EXPECT_EQ(dog.rule_count(), 2u);
}

TEST(Watchdog, MirrorsTransitionsIntoTrace) {
  TraceRecorder rec;
  Watchdog dog(&rec);
  dog.add_rule({.name = "hot", .signal = "w", .threshold = 10.0});
  dog.observe("w", 1, 20.0);
  dog.observe("w", 2, 5.0);
  EXPECT_EQ(rec.count(EventType::kAlertRaised), 1u);
  EXPECT_EQ(rec.count(EventType::kAlertCleared), 1u);
  std::ostringstream out;
  rec.write_jsonl(out);
  EXPECT_NE(out.str().find("\"rule\": \"hot\""), std::string::npos);
}

// --------------------------------------------------- end-to-end via a Hub

scenario::ScenarioConfig small_attack_scenario() {
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.budget = power::BudgetLevel::kLow;
  config.num_servers = 4;
  config.normal_rps = 100.0;
  config.attack_rps = 200.0;
  config.duration = 60 * kSecond;
  config.seed = 7;
  return config;
}

TEST(Hub, AttachingObservabilityDoesNotPerturbResults) {
  const auto plain = scenario::run_scenario(small_attack_scenario());

  Hub hub;
  auto traced_config = small_attack_scenario();
  traced_config.obs = &hub;
  traced_config.default_alert_rules = true;
  const auto traced = scenario::run_scenario(traced_config);

  // Byte-identical simulation: every reported number matches exactly.
  EXPECT_EQ(plain.mean_ms, traced.mean_ms);
  EXPECT_EQ(plain.p99_ms, traced.p99_ms);
  EXPECT_EQ(plain.availability, traced.availability);
  EXPECT_EQ(plain.mean_power, traced.mean_power);
  EXPECT_EQ(plain.peak_power, traced.peak_power);
  EXPECT_EQ(plain.slot_stats.violation_slots,
            traced.slot_stats.violation_slots);
  EXPECT_EQ(plain.energy.battery, traced.energy.battery);
  ASSERT_EQ(plain.power_timeline.size(), traced.power_timeline.size());
  for (std::size_t i = 0; i < plain.power_timeline.size(); ++i) {
    EXPECT_EQ(plain.power_timeline[i].value,
              traced.power_timeline[i].value);
  }

  // And the hub actually observed the run.
  EXPECT_GT(hub.trace().recorded(), 0u);
  EXPECT_GT(hub.registry().size(), 0u);
  const Counter* executed =
      hub.registry().find_counter("sim.events_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(executed->value(), 0.0);
}

TEST(Hub, CountersAgreeWithClusterSlotStats) {
  Hub hub;
  auto config = small_attack_scenario();
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);

  const Counter* violations =
      hub.registry().find_counter("cluster.violation_slots");
  ASSERT_NE(violations, nullptr);
  EXPECT_DOUBLE_EQ(
      violations->value(),
      static_cast<double>(result.slot_stats.violation_slots));
  EXPECT_EQ(hub.trace().count(EventType::kBudgetViolation),
            result.slot_stats.violation_slots);
}

// ------------------------------------------------------------------ spans

TEST(Spans, BeginEndPairsAndInstants) {
  SpanTracer tracer;
  Span root;
  root.id = span_id_for(42, SpanKind::kRequest);
  root.begin = 10;
  root.source_id = 7;
  tracer.begin(root);

  Span verdict;
  verdict.id = span_id_for(42, SpanKind::kFirewall);
  verdict.kind = SpanKind::kFirewall;
  verdict.outcome = "pass";
  tracer.instant(verdict, 10);

  EXPECT_EQ(tracer.open_count(), 1u);
  tracer.end(root.id, 25, "completed");
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.unmatched_ends(), 0u);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const Span& closed_root = tracer.spans()[0];
  EXPECT_EQ(closed_root.begin, 10);
  EXPECT_EQ(closed_root.end, 25);
  EXPECT_STREQ(closed_root.outcome, "completed");
  EXPECT_FALSE(closed_root.open());
  EXPECT_EQ(tracer.spans()[1].begin, tracer.spans()[1].end);
  // The parent is derived from the id: 0 for the root, the root's id
  // for every other stage.
  EXPECT_EQ(closed_root.parent(), 0u);
  EXPECT_EQ(tracer.spans()[1].parent(), root.id);
  EXPECT_EQ(tracer.count(SpanKind::kRequest), 1u);
  EXPECT_EQ(tracer.count(SpanKind::kFirewall), 1u);
}

TEST(Spans, UnknownEndsAreCountedNotFatal) {
  SpanTracer tracer;
  tracer.end(99, 5, "ghost");
  Span span;
  span.id = 1;
  tracer.begin(span);
  tracer.end(1, 2, "ok");
  tracer.end(1, 3, "again");  // already closed
  EXPECT_EQ(tracer.unmatched_ends(), 2u);
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(Spans, CapDropsSpansLoudlyNotSilently) {
  SpanTracer tracer(SpanConfig{.max_spans = 2});
  for (std::uint64_t i = 0; i < 5; ++i) {
    Span span;
    span.id = span_id_for(i, SpanKind::kRequest);
    span.begin = static_cast<Time>(i);
    tracer.begin(span);
  }
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  // Ends for spans dropped past the cap are unmatched, not fatal.
  tracer.end(span_id_for(4, SpanKind::kRequest), 9, "late");
  EXPECT_EQ(tracer.unmatched_ends(), 1u);

  std::ostringstream out;
  tracer.write_jsonl(out);
  EXPECT_NE(out.str().find("SpanTruncated"), std::string::npos);
  EXPECT_NE(out.str().find("\"dropped\": 3"), std::string::npos);
}

TEST(Spans, JsonlRecordsCarrySchemaFields) {
  SpanTracer tracer;
  Span span;
  span.id = span_id_for(3, SpanKind::kService);
  span.kind = SpanKind::kService;
  span.begin = 100;
  span.source_id = 1'000'001;
  span.url_class = 2;
  span.power_w = Watts{21.0};
  span.server = 1;
  span.slot = 0;
  tracer.begin(span);
  tracer.end(span.id, 250, "completed");

  std::ostringstream out;
  tracer.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\": \"SpanBegin\""), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"SpanEnd\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"service\""), std::string::npos);
  EXPECT_NE(text.find("\"parent\": 24,"), std::string::npos);  // 3 << 3
  EXPECT_NE(text.find("\"power_w\": 21"), std::string::npos);
  EXPECT_NE(text.find("\"outcome\": \"completed\""), std::string::npos);
}

// ---------------------------------------------------------- merged export

Span make_span(std::uint64_t request, SpanKind kind, Time begin) {
  Span span;
  span.id = span_id_for(request, kind);
  span.kind = kind;
  span.begin = begin;
  return span;
}

/// The merged export as materialise-and-sort: every record tagged with
/// (t, stream), stable-sorted, then written. Reference for
/// `write_merged_jsonl`.
std::string reference_merge(const EventLog& events, const SpanLog& spans) {
  struct Entry {
    Time t;
    int stream;  // 0 = event, 1 = begin, 2 = end
    std::size_t idx;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < events.size(); ++i) {
    entries.push_back({events[i].t, 0, i});
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    entries.push_back({spans[i].begin, 1, i});
    if (!spans[i].open()) entries.push_back({spans[i].end, 2, i});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.stream < b.stream;
                   });
  JsonBuf buf;
  for (const Entry& entry : entries) {
    switch (entry.stream) {
      case 0: write_jsonl_event(buf, events[entry.idx]); break;
      case 1: write_span_begin_jsonl(buf, spans[entry.idx]); break;
      default: write_span_end_jsonl(buf, spans[entry.idx]); break;
    }
    buf.raw('\n');
  }
  std::ostringstream out;
  buf.flush(out);
  return out.str();
}

/// One word per JSONL line, space-separated: t_us, then "b"/"e" and the
/// span id for SpanBegin/SpanEnd, else the event's source.
std::string line_keys(const std::string& jsonl) {
  std::string keys;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const auto field = [&](const std::string& key) {
      const auto at = line.find("\"" + key + "\": ");
      if (at == std::string::npos) return std::string();
      const auto from = at + key.size() + 4;
      return line.substr(from, line.find_first_of(",}", from) - from);
    };
    const std::string type = field("type");
    if (!keys.empty()) keys += ' ';
    keys += field("t_us");
    if (type == "\"SpanBegin\"") {
      keys += 'b';
      keys += field("span_id");
    } else if (type == "\"SpanEnd\"") {
      keys += 'e';
      keys += field("span_id");
    } else {
      const std::string source = field("source");
      keys += source.substr(1, source.size() - 2);
    }
  }
  return keys;
}

TEST(MergedExport, EqualTimesOrderEventsThenBeginsThenEnds) {
  Hub hub(HubConfig{.enable_spans = true});
  SpanTracer& spans = *hub.spans();
  spans.begin(make_span(1, SpanKind::kRequest, 5));   // id 8, ends at 10
  spans.begin(make_span(2, SpanKind::kRequest, 10));  // id 16, ends at 10
  hub.event(make_event(10, EventType::kRequestForwarded, "edge"));
  spans.instant(make_span(2, SpanKind::kFirewall, 0), 10);  // id 17
  spans.end(span_id_for(2, SpanKind::kRequest), 10, "completed");
  spans.end(span_id_for(1, SpanKind::kRequest), 10, "completed");
  hub.event(make_event(10, EventType::kBudgetViolation, "cluster"));
  spans.begin(make_span(3, SpanKind::kRequest, 12));  // id 24, stays open

  std::ostringstream out;
  hub.write_trace_jsonl(out);
  EXPECT_EQ(line_keys(out.str()),
            "5b8 10edge 10cluster 10b16 10b17 10e8 10e16 10e17 12b24");
  EXPECT_EQ(out.str(), reference_merge(hub.trace().events(), spans.spans()));
}

TEST(MergedExport, EventRecordedOutOfTimeOrderIsSortedIn) {
  Hub hub(HubConfig{.enable_spans = true});
  SpanTracer& spans = *hub.spans();
  spans.begin(make_span(1, SpanKind::kRequest, 10));
  hub.event(make_event(20, EventType::kRequestForwarded, "edge"));
  // A watchdog fed by hand at an older time records behind the clock.
  hub.event(make_event(10, EventType::kAlertRaised, "watchdog"));
  hub.event(make_event(5, EventType::kAlertCleared, "watchdog"));
  spans.end(span_id_for(1, SpanKind::kRequest), 20, "completed");

  std::ostringstream out;
  hub.write_trace_jsonl(out);
  EXPECT_EQ(line_keys(out.str()), "5watchdog 10watchdog 10b8 20edge 20e8");
  EXPECT_EQ(out.str(), reference_merge(hub.trace().events(), spans.spans()));
}

TEST(MergedExport, MatchesMaterialiseAndSortOnRandomStreams) {
  Rng rng(11);
  for (int round = 0; round < 50; ++round) {
    Hub hub(HubConfig{.enable_spans = true});
    SpanTracer& spans = *hub.spans();
    const bool shuffled = round % 5 == 4;  // out-of-order rounds
    Time now = 0;
    std::vector<std::uint64_t> open;
    for (std::uint64_t i = 1; i <= 200; ++i) {
      now += static_cast<Time>(rng() % 3);  // many equal timestamps
      const Time t = shuffled ? static_cast<Time>(rng() % 300) : now;
      switch (rng() % 4) {
        case 0:
          hub.event(make_event(t, EventType::kRequestForwarded, "edge"));
          break;
        case 1: spans.instant(make_span(i, SpanKind::kLbPick, 0), t); break;
        case 2:
          spans.begin(make_span(i, SpanKind::kQueue, t));
          open.push_back(span_id_for(i, SpanKind::kQueue));
          break;
        default:
          if (!open.empty()) {
            const std::size_t k = rng() % open.size();
            spans.end(open[k], now + static_cast<Time>(rng() % 5), "done");
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
          }
      }
    }
    std::ostringstream out;
    hub.write_trace_jsonl(out);
    ASSERT_EQ(out.str(),
              reference_merge(hub.trace().events(), spans.spans()))
        << "round " << round;
    // The stand-alone span export is the same merge with no events.
    std::ostringstream alone;
    spans.write_jsonl(alone);
    ASSERT_EQ(alone.str(), reference_merge(EventLog{}, spans.spans()))
        << "round " << round;
  }
}

TEST(MergedExport, EqualEndsExportInIndexOrderNotCloseOrder) {
  // A service span and its request close at the same µs, the service
  // (recorded later) first: the ends still export in index order.
  Hub hub(HubConfig{.enable_spans = true});
  SpanTracer& spans = *hub.spans();
  spans.begin(make_span(1, SpanKind::kRequest, 5));  // index 0, id 8
  spans.begin(make_span(1, SpanKind::kService, 7));  // index 1, id 12
  spans.end(span_id_for(1, SpanKind::kService), 20, "completed");
  spans.end(span_id_for(1, SpanKind::kRequest), 20, "completed");
  EXPECT_EQ(spans.close_order(), (std::vector<std::uint32_t>{1, 0}));

  std::ostringstream out;
  hub.write_trace_jsonl(out);
  EXPECT_EQ(line_keys(out.str()), "5b8 7b12 20e8 20e12");
  EXPECT_EQ(out.str(), reference_merge(hub.trace().events(), spans.spans()));
}

TEST(MergedExport, MatchesMaterialiseAndSortPastTheCap) {
  Rng rng(23);
  for (int round = 0; round < 20; ++round) {
    SpanTracer tracer(SpanConfig{.max_spans = 60});
    EventLog events;
    const bool monotone = round % 4 != 3;  // else ends out of time order
    // Closed at a negative time, a span reads as open to the export and
    // to the reference alike.
    tracer.begin(make_span(1'000, SpanKind::kQueue, -5));
    tracer.end(span_id_for(1'000, SpanKind::kQueue), -3, "done");
    Time now = 0;
    std::vector<std::uint64_t> open;
    for (std::uint64_t i = 1; i <= 200; ++i) {
      now += static_cast<Time>(rng() % 3);
      switch (rng() % 4) {
        case 0:
          events.push_back(make_event(now, EventType::kRequestForwarded,
                                      "edge"));
          break;
        case 1: tracer.instant(make_span(i, SpanKind::kLbPick, 0), now); break;
        case 2:
          tracer.begin(make_span(i, SpanKind::kQueue, now));
          open.push_back(span_id_for(i, SpanKind::kQueue));
          break;
        default:
          if (!open.empty()) {
            const std::size_t k = rng() % open.size();
            const Time end =
                monotone ? now : now + static_cast<Time>(rng() % 5);
            tracer.end(open[k], end, "done");
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
          }
      }
    }
    ASSERT_GT(tracer.dropped(), 0u);
    ASSERT_GT(tracer.unmatched_ends(), 0u);  // ends of dropped spans
    JsonBuf buf;
    std::ostringstream out;
    write_merged_jsonl(out, buf, events, tracer);
    buf.flush(out);
    ASSERT_EQ(out.str(), reference_merge(events, tracer.spans()))
        << "round " << round;
  }
}

TEST(MergedExport, EveryKindNamesItselfInBothRecords) {
  const char* const names[kSpanKindCount] = {"request", "firewall",
                                             "lb_pick", "queue", "service"};
  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    Span span = make_span(1, static_cast<SpanKind>(k), 3);
    span.end = 4;
    span.outcome = "done";
    JsonBuf buf;
    write_span_begin_jsonl(buf, span);
    write_span_end_jsonl(buf, span);
    const std::string text = drain(buf);
    const std::string field = std::string("\"kind\": \"") + names[k] + '"';
    EXPECT_NE(text.find(field + ", \"source_id\": 0"), std::string::npos)
        << text;
    EXPECT_NE(text.find(field + ", \"outcome\": \"done\"}"),
              std::string::npos)
        << text;
  }
}

TEST(Trace, SetMaxEventsTightensCapAtRuntime) {
  TraceRecorder rec;
  rec.set_max_events(3);
  for (int i = 0; i < 4; ++i) {
    rec.record(make_event(i, EventType::kRequestForwarded, "edge"));
  }
  // Exactly at the boundary: the cap-th event is kept, the next dropped.
  EXPECT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.dropped(), 1u);
}

// --------------------------------------------------------------- live tap

TEST(Live, LatestReturnsFalseBeforeFirstPublish) {
  LiveTap tap;
  LiveSnapshot snap;
  EXPECT_FALSE(tap.latest(snap));
  EXPECT_EQ(tap.published(), 0u);
}

TEST(Live, PublishAssignsMonotoneSeqAndRoundTrips) {
  LiveTap tap;
  LiveSnapshot in;
  in.runs_total = 12;
  in.runs_completed = 3;
  in.runs_failed = 1;
  in.wall_ms_sum = 45.5;
  in.wall_ms_min = 10.25;
  in.wall_ms_max = 20.75;
  in.wall_ms_count = 3;
  tap.publish(in);
  in.runs_completed = 4;
  in.done = true;
  tap.publish(in);

  LiveSnapshot out;
  ASSERT_TRUE(tap.latest(out));
  EXPECT_EQ(out.seq, 2u);
  EXPECT_EQ(out.runs_total, 12u);
  EXPECT_EQ(out.runs_completed, 4u);
  EXPECT_EQ(out.runs_failed, 1u);
  EXPECT_EQ(out.wall_ms_sum, 45.5);
  EXPECT_EQ(out.wall_ms_min, 10.25);
  EXPECT_EQ(out.wall_ms_max, 20.75);
  EXPECT_EQ(out.wall_ms_count, 3u);
  EXPECT_TRUE(out.done);
}

TEST(Live, ConcurrentReaderAlwaysSeesConsistentSnapshot) {
  // Torn-read check (runs under TSan in CI): the reader must only ever
  // observe snapshots where the derived fields agree, even while the
  // producer publishes at full speed.
  LiveTap tap;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    LiveSnapshot snap;
    while (!stop.load(std::memory_order_acquire)) {
      if (!tap.latest(snap)) continue;
      // Invariants the producer maintains on every publish; a torn
      // read would mix words from two different snapshots.
      if (snap.runs_completed != snap.wall_ms_count ||
          snap.wall_ms_sum !=
              static_cast<double>(snap.runs_completed) * 2.5) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  LiveSnapshot snap;
  snap.runs_total = 4096;
  for (std::uint64_t i = 1; i <= 4096; ++i) {
    snap.runs_completed = i;
    snap.wall_ms_count = i;
    snap.wall_ms_sum = static_cast<double>(i) * 2.5;
    tap.publish(snap);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  LiveSnapshot last;
  ASSERT_TRUE(tap.latest(last));
  EXPECT_EQ(last.runs_completed, 4096u);
}

TEST(Live, JsonAndPrometheusExportsCarryAllFields) {
  LiveSnapshot snap;
  snap.seq = 3;
  snap.runs_total = 8;
  snap.runs_completed = 5;
  snap.runs_failed = 1;
  snap.wall_ms_sum = 50.0;
  snap.wall_ms_min = 5.0;
  snap.wall_ms_max = 15.0;
  snap.wall_ms_count = 5;
  snap.done = false;

  std::ostringstream json;
  write_live_json(json, snap);
  EXPECT_NE(json.str().find("\"runs_completed\": 5"), std::string::npos);
  EXPECT_NE(json.str().find("\"wall_ms_mean\": 10"), std::string::npos);
  EXPECT_NE(json.str().find("\"done\": false"), std::string::npos);

  std::ostringstream prom;
  write_live_prometheus(prom, snap);
  EXPECT_NE(prom.str().find("dope_sweep_runs_total 8"),
            std::string::npos);
  EXPECT_NE(prom.str().find("dope_sweep_runs_failed 1"),
            std::string::npos);
  EXPECT_NE(prom.str().find("dope_sweep_done 0"), std::string::npos);
}

TEST(Live, DrainLoopOverNeverPublishedTapSeesNothing) {
  // A CLI drainer polling a tap whose producer never publishes (e.g. a
  // campaign that fails before its first case) must observe "nothing"
  // every time — no phantom snapshot, no seq movement — and the
  // never-published default snapshot must still export as a well-formed
  // "seq 0" document rather than garbage.
  LiveTap tap;
  LiveSnapshot snap;
  snap.runs_total = 999;  // latest() must not leave stale fields behind
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(tap.latest(snap));
    EXPECT_EQ(tap.published(), 0u);
  }
  std::ostringstream json;
  write_live_json(json, LiveSnapshot{});
  EXPECT_NE(json.str().find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(json.str().find("\"done\": false"), std::string::npos);
  std::ostringstream prom;
  write_live_prometheus(prom, LiveSnapshot{});
  EXPECT_NE(prom.str().find("dope_sweep_runs_total 0"),
            std::string::npos);
}

/// A fresh, empty directory under the system temp dir, removed on exit.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             (name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Live, DrainerFinalEmitWritesDoneJsonAndPromSibling) {
  TempDir dir("dope-live-drainer");
  const auto json = dir.path / "live_metrics.json";
  LiveTap tap;
  {
    LiveDrainer drainer(tap, json.string(), "test", "run", 60'000);
    LiveSnapshot snap;
    snap.runs_total = 2;
    snap.record(true, 4.0);
    snap.record(false, 6.0);
    snap.done = true;
    tap.publish(snap);
    // The 60 s interval never elapses, so the drainer's first emit or
    // the final one on destruction picks this snapshot up.
  }
  const std::string written = slurp(json);
  EXPECT_NE(written.find("\"done\": true"), std::string::npos) << written;
  EXPECT_NE(written.find("\"runs_completed\": 2"), std::string::npos);
  EXPECT_NE(written.find("\"runs_failed\": 1"), std::string::npos);
  EXPECT_NE(written.find("\"wall_ms_mean\": 5"), std::string::npos);
  EXPECT_NE(slurp(dir.path / "live_metrics.prom").find("dope_sweep_done 1"),
            std::string::npos);
}

TEST(Live, DrainerOverNeverPublishedTapWritesNoFile) {
  TempDir dir("dope-live-idle");
  const auto json = dir.path / "live.json";
  LiveTap tap;
  { LiveDrainer drainer(tap, json.string(), "test", "run", 1); }
  EXPECT_FALSE(std::filesystem::exists(json));
  EXPECT_FALSE(std::filesystem::exists(dir.path / "live.prom"));
  EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

TEST(Live, RecordTalliesCountsAndWallClockStats) {
  LiveSnapshot snap;
  snap.record(true, 7.0);
  snap.record(false, 3.0);
  snap.record(true, 5.0);
  EXPECT_EQ(snap.runs_completed, 3u);
  EXPECT_EQ(snap.runs_failed, 1u);
  EXPECT_EQ(snap.wall_ms_count, 3u);
  EXPECT_EQ(snap.wall_ms_sum, 15.0);
  EXPECT_EQ(snap.wall_ms_min, 3.0);
  EXPECT_EQ(snap.wall_ms_max, 7.0);
}

// --------------------------------------------------------- obs edge cases

TEST(Forensics, ZeroRequestRunProducesEmptyRollup) {
  // Forensics on a run that never saw a request: no sources, no energy,
  // no violations — and the JSON export is still a complete document.
  HubConfig config;
  config.enable_spans = true;
  Hub hub(config);
  auto scenario_config = scenario::ScenarioConfig{};
  scenario_config.num_servers = 2;
  scenario_config.normal_rps = 0.0;
  scenario_config.attack_rps = 0.0;
  scenario_config.duration = 5 * kSecond;
  scenario_config.obs = &hub;
  scenario::run_scenario(scenario_config);

  const auto forensics =
      Forensics::build(*hub.spans(), hub.trace(), scenario_config.duration);
  EXPECT_TRUE(forensics.sources().empty());
  EXPECT_EQ(forensics.total_joules().value(), 0.0);
  EXPECT_TRUE(forensics.top_by_joules(5).empty());
  std::ostringstream json;
  forensics.write_json(json);
  EXPECT_NE(json.str().find("\"total_joules\": 0"), std::string::npos);
  EXPECT_NE(json.str().find("\"sources\": 0"), std::string::npos);
  EXPECT_NE(json.str().find("\"ranking\": ["), std::string::npos);
}

/// `Forensics::build` as std::maps keyed by source, class and zone: the
/// reference the flat accumulators must match field for field.
std::vector<SourceStats> reference_forensics(const SpanTracer& spans,
                                             const TraceRecorder& trace,
                                             Time horizon) {
  std::vector<Time> violations;
  for (const EventView e : trace.events()) {
    if (e.type == EventType::kBudgetViolation) violations.push_back(e.t);
  }
  if (horizon < 0) {
    for (const Span& span : spans.spans()) {
      horizon = std::max({horizon, span.begin, span.end});
    }
  }
  struct Accum {
    SourceStats stats;
    std::map<std::uint32_t, Joules> class_joules;
    std::map<std::uint32_t, std::uint64_t> class_requests;
    std::map<std::int32_t, Joules> zone_joules;
  };
  std::map<std::uint32_t, Accum> accum;
  for (const Span& span : spans.spans()) {
    Accum& a = accum[span.source_id];
    a.stats.source_id = span.source_id;
    if (span.kind == SpanKind::kRequest) {
      ++a.stats.requests;
      ++a.class_requests[span.url_class];
      if (std::string_view(span.outcome) == "completed") ++a.stats.completed;
    } else if (span.kind == SpanKind::kService) {
      const Time end = span.open() ? horizon : span.end;
      const Duration held = std::max<Duration>(end - span.begin, 0);
      a.stats.joules += span.power_w * held;
      a.stats.occupancy_ms += to_seconds(held) * 1e3;
      a.class_joules[span.url_class] += span.power_w * held;
      if (span.zone >= 0) a.zone_joules[span.zone] += span.power_w * held;
      a.stats.violation_overlaps += static_cast<std::uint64_t>(
          std::upper_bound(violations.begin(), violations.end(), end) -
          std::lower_bound(violations.begin(), violations.end(),
                           span.begin));
    }
  }
  std::vector<SourceStats> out;
  for (auto& [source, a] : accum) {
    Joules best_j{0.0};
    for (const auto& [cls, j] : a.class_joules) {
      if (j > best_j) {
        best_j = j;
        a.stats.dominant_class = cls;
      }
    }
    if (best_j <= Joules{0.0}) {
      std::uint64_t best_n = 0;
      for (const auto& [cls, n] : a.class_requests) {
        if (n > best_n) {
          best_n = n;
          a.stats.dominant_class = cls;
        }
      }
    }
    Joules best_zone{0.0};
    for (const auto& [zone, j] : a.zone_joules) {
      if (j > best_zone) {
        best_zone = j;
        a.stats.dominant_zone = zone;
      }
    }
    out.push_back(a.stats);
  }
  return out;
}

/// Records one request of `source`: its root span, and a service span
/// in `zone` drawing `watts` for `held` µs unless `held` is negative.
void record_request(SpanTracer& spans, std::uint64_t request,
                    std::uint32_t source, std::uint32_t url_class, int zone,
                    double watts, Time begin, Duration held) {
  Span root = make_span(request, SpanKind::kRequest, begin);
  root.source_id = source;
  root.url_class = url_class;
  spans.begin(root);
  if (held >= 0) {
    Span service = make_span(request, SpanKind::kService, begin);
    service.source_id = source;
    service.url_class = url_class;
    service.zone = zone;
    service.power_w = Watts{watts};
    spans.begin(service);
    spans.end(service.id, begin + held, "completed");
  }
  spans.end(root.id, begin + std::max<Duration>(held, 0),
            held >= 0 ? "completed" : "dropped");
}

void expect_forensics_match(const SpanTracer& spans,
                            const TraceRecorder& trace, Time horizon) {
  const Forensics built = Forensics::build(spans, trace, horizon);
  const std::vector<SourceStats> want =
      reference_forensics(spans, trace, horizon);
  ASSERT_EQ(built.sources().size(), want.size());
  Joules total{0.0};
  for (std::size_t i = 0; i < want.size(); ++i) {
    const SourceStats& got = built.sources()[i];
    SCOPED_TRACE("source " + std::to_string(want[i].source_id));
    EXPECT_EQ(got.source_id, want[i].source_id);
    EXPECT_EQ(got.requests, want[i].requests);
    EXPECT_EQ(got.completed, want[i].completed);
    EXPECT_EQ(got.joules.value(), want[i].joules.value());
    EXPECT_EQ(got.occupancy_ms, want[i].occupancy_ms);
    EXPECT_EQ(got.violation_overlaps, want[i].violation_overlaps);
    EXPECT_EQ(got.dominant_class, want[i].dominant_class);
    EXPECT_EQ(got.dominant_zone, want[i].dominant_zone);
    total += want[i].joules;
  }
  EXPECT_EQ(built.total_joules().value(), total.value());
}

TEST(Forensics, TwoZoneRollupMatchesMapReference) {
  SpanTracer spans;
  TraceRecorder trace;
  trace.record(make_event(150, EventType::kBudgetViolation, "cluster"));
  std::uint64_t request = 1;
  // Recorded out of source order; sources() comes out ascending.
  // 1'000'002: equal joules in classes 4 and 2 and in zones 1 and 0.
  record_request(spans, request++, 1'000'002, 4, 1, 10.0, 100, 100);
  record_request(spans, request++, 1'000'002, 2, 0, 10.0, 120, 100);
  // 7: class 1 outdraws class 3 in zone 1; the request of class 3 that
  // never reached a slot does not count toward its class.
  record_request(spans, request++, 7, 3, 1, 5.0, 130, 40);
  record_request(spans, request++, 7, 1, 1, 5.0, 140, 90);
  record_request(spans, request++, 7, 3, 0, 0.0, 150, -1);
  // 9 never reached a slot: the class with most requests wins, no zone.
  record_request(spans, request++, 9, 5, 0, 0.0, 160, -1);
  record_request(spans, request++, 9, 3, 0, 0.0, 161, -1);
  record_request(spans, request++, 9, 5, 0, 0.0, 162, -1);
  // 3 reached a slot of a zone-less cluster only.
  record_request(spans, request++, 3, 0, -1, 8.0, 170, 30);

  const Forensics built = Forensics::build(spans, trace, 1'000);
  std::vector<std::uint32_t> ids;
  for (const SourceStats& s : built.sources()) ids.push_back(s.source_id);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{3, 7, 9, 1'000'002}));
  const auto& by_id = built.sources();
  EXPECT_EQ(by_id[0].dominant_zone, -1);
  EXPECT_EQ(by_id[1].dominant_class, 1u);
  EXPECT_EQ(by_id[1].dominant_zone, 1);
  EXPECT_EQ(by_id[2].dominant_class, 5u);
  EXPECT_EQ(by_id[2].dominant_zone, -1);
  EXPECT_EQ(by_id[2].joules.value(), 0.0);
  EXPECT_EQ(by_id[3].dominant_class, 2u);  // tie: lower class
  EXPECT_EQ(by_id[3].dominant_zone, 0);    // tie: lower zone
  EXPECT_EQ(by_id[3].violation_overlaps, 2u);
  expect_forensics_match(spans, trace, 1'000);
}

TEST(Forensics, RandomRollupsMatchMapReference) {
  Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    SpanTracer spans;
    TraceRecorder trace;
    // Enough sources to grow the source table several times; few
    // classes, zones and powers, so sums tie often.
    std::vector<std::uint32_t> sources;
    for (int i = 0; i < 300; ++i) {
      sources.push_back(i % 3 == 0 ? 1'000'000 + static_cast<std::uint32_t>(i)
                                   : static_cast<std::uint32_t>(rng()));
    }
    Time now = 0;
    for (std::uint64_t request = 1; request <= 3'000; ++request) {
      now += static_cast<Time>(rng() % 50);
      if (rng() % 40 == 0) {
        trace.record(make_event(now, EventType::kBudgetViolation, "cluster"));
      }
      const bool served = rng() % 4 != 0;
      record_request(spans, request, sources[rng() % sources.size()],
                     static_cast<std::uint32_t>(rng() % 5),
                     static_cast<int>(rng() % 3) - 1,
                     static_cast<double>(rng() % 3) * 4.0, now,
                     served ? static_cast<Duration>(rng() % 4) * 100 : -1);
    }
    // A service span still open at the horizon is clamped to it.
    Span open = make_span(9'999, SpanKind::kService, now);
    open.source_id = sources[0];
    open.zone = 1;
    open.power_w = Watts{3.0};
    spans.begin(open);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_forensics_match(spans, trace, now + 500);
    expect_forensics_match(spans, trace, -1);
  }
}

TEST(Hub, TraceCapZeroKeepsTheHubsConfiguredCap) {
  // `ScenarioConfig::trace_cap == 0` means "do not touch the hub": the
  // run must leave whatever retention the caller configured in place.
  TraceConfig trace_config;
  trace_config.max_events = 123;
  HubConfig hub_config;
  hub_config.trace = trace_config;
  Hub hub(hub_config);

  auto config = scenario::ScenarioConfig{};
  config.num_servers = 2;
  config.normal_rps = 20.0;
  config.duration = 5 * kSecond;
  config.obs = &hub;
  config.trace_cap = 0;
  scenario::run_scenario(config);
  EXPECT_EQ(hub.trace().max_events(), 123u);

  // A positive cap overrides for the run (and is loud when it drops).
  Hub tightened;
  config.obs = &tightened;
  config.trace_cap = 1;
  config.default_alert_rules = true;  // guarantees recordable events
  scenario::run_scenario(config);
  EXPECT_EQ(tightened.trace().max_events(), 1u);
  if (tightened.trace().recorded() > 1) {
    EXPECT_GT(tightened.trace().dropped(), 0u);
    std::ostringstream jsonl;
    tightened.trace().write_jsonl(jsonl);
    EXPECT_NE(jsonl.str().find("TraceTruncated"), std::string::npos);
  }
}

}  // namespace
}  // namespace dope::obs
