// Unit tests for the common utility layer: units, RNG, statistics,
// histograms, CSV, the JSON reader, tables, and the parallel sweep
// helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/csv.hpp"
#include "common/expect.hpp"
#include "common/histogram.hpp"
#include "common/minijson.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace dope {
namespace {

// ----------------------------------------------------------------- units

TEST(Units, SecondConversionsRoundTrip) {
  EXPECT_EQ(seconds(1.5), 1'500'000);
  EXPECT_EQ(millis(2.0), 2'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kMillisecond), 1.0);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 3600 * kSecond);
}

TEST(Units, EnergyOfIntegratesPowerOverTime) {
  EXPECT_DOUBLE_EQ(energy_of(Watts{100.0}, kSecond).value(), 100.0);
  EXPECT_DOUBLE_EQ(energy_of(Watts{50.0}, 2 * kMinute).value(),
                   50.0 * 120.0);
  EXPECT_DOUBLE_EQ(energy_of(Watts{0.0}, kHour).value(), 0.0);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(5.0, 6.0);
    ASSERT_GE(u, 5.0);
    ASSERT_LT(u, 6.0);
  }
}

TEST(Rng, UniformIntCoversFullInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(10);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
  EXPECT_GT(stats.min(), 0.0);
}

TEST(Rng, NormalMatchesMoments) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, LognormalMeanOneParameterisation) {
  // mu = -sigma^2/2 makes E[X] = 1, the size-factor convention.
  Rng rng(12);
  const double sigma = 0.25;
  OnlineStats stats;
  for (int i = 0; i < 200'000; ++i) {
    stats.add(rng.lognormal(-0.5 * sigma * sigma, sigma));
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.01);
}

TEST(Rng, ParetoStaysInBounds) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.pareto(1.5, 0.5, 3.0);
    ASSERT_GE(v, 0.5 - 1e-9);
    ASSERT_LE(v, 3.0 + 1e-9);
  }
}

TEST(Rng, ChanceIsCalibrated) {
  Rng rng(14);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(15);
  Rng child = parent.fork();
  // The child stream should not replay the parent's outputs.
  Rng parent_copy(15);
  (void)parent_copy();  // consume the value used to seed the fork
  EXPECT_NE(child(), parent_copy());
}

// ----------------------------------------------------------------- stats

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesCombinedStream) {
  Rng rng(20);
  OnlineStats all, left, right;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(1.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, b;
  a.add(3.0);
  a.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 4.0);
}

TEST(Percentiles, ExactValuesOnSmallSet) {
  Percentiles p;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
  EXPECT_DOUBLE_EQ(p.max(), 5.0);
  EXPECT_DOUBLE_EQ(p.median(), 3.0);
  EXPECT_DOUBLE_EQ(p.percentile(25), 2.0);
  EXPECT_DOUBLE_EQ(p.percentile(75), 4.0);
  EXPECT_DOUBLE_EQ(p.mean(), 3.0);
}

TEST(Percentiles, InterpolatesBetweenRanks) {
  Percentiles p;
  p.add(0.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(90), 9.0);
}

TEST(Percentiles, SingleSample) {
  Percentiles p;
  p.add(42.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 42.0);
}

TEST(Percentiles, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
}

TEST(Percentiles, RejectsOutOfRangeRank) {
  Percentiles p;
  p.add(1.0);
  EXPECT_THROW(p.percentile(-1), std::invalid_argument);
  EXPECT_THROW(p.percentile(101), std::invalid_argument);
}

TEST(Percentiles, CdfAtCountsInclusive) {
  Percentiles p;
  for (double x : {1.0, 2.0, 3.0, 4.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(p.cdf_at(10.0), 1.0);
}

TEST(Percentiles, SortedSamplesAreSorted) {
  Percentiles p;
  for (double x : {3.0, 1.0, 2.0}) p.add(x);
  const auto& sorted = p.sorted_samples();
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(MakeCdf, ProducesMonotoneCurve) {
  Percentiles p;
  Rng rng(21);
  for (int i = 0; i < 5'000; ++i) p.add(rng.uniform());
  const auto cdf = make_cdf(p, 50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].x, cdf[i - 1].x);
    EXPECT_GE(cdf[i].f, cdf[i - 1].f);
  }
  EXPECT_DOUBLE_EQ(cdf.front().f, 0.0);
  EXPECT_DOUBLE_EQ(cdf.back().f, 1.0);
}

// -------------------------------------------------------------- histogram

TEST(Histogram, CountsFallIntoCorrectBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(9.99);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

TEST(Histogram, TracksUnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-1.0);
  h.add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, PercentileApproximatesUniform) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(22);
  for (int i = 0; i < 100'000; ++i) h.add(rng.uniform());
  EXPECT_NEAR(h.percentile(50), 0.5, 0.02);
  EXPECT_NEAR(h.percentile(90), 0.9, 0.02);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0.0, 1.0, 2), b(0.0, 1.0, 2);
  a.add(0.25);
  b.add(0.75);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.bin_count(0), 1u);
  EXPECT_EQ(a.bin_count(1), 1u);
}

TEST(Histogram, MergeRejectsMismatchedLayout) {
  Histogram a(0.0, 1.0, 2), b(0.0, 2.0, 2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// ------------------------------------------------------------------- csv

TEST(Csv, ParsesSimpleLine) {
  const auto fields = parse_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Csv, ParsesQuotedFieldsWithCommasAndQuotes) {
  const auto fields = parse_csv_line(R"(x,"a,b","say ""hi""",y)");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "a,b");
  EXPECT_EQ(fields[2], "say \"hi\"");
}

TEST(Csv, ReaderConsumesHeaderAndRows) {
  std::istringstream in("t,v\n1,2\n3,4\n");
  CsvReader reader(in);
  ASSERT_EQ(reader.header().size(), 2u);
  EXPECT_EQ(*reader.column("v"), 1u);
  EXPECT_FALSE(reader.column("missing").has_value());
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[0], "1");
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[1], "4");
  EXPECT_FALSE(reader.next(row));
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(Csv, ReaderHandlesCrlfAndBlankLines) {
  std::istringstream in("a,b\r\n\n1,2\r\n");
  CsvReader reader(in);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[0], "1");
  EXPECT_EQ(row[1], "2");
}

TEST(Csv, ReaderReassemblesMultilineQuotedField) {
  std::istringstream in("h1,h2\n\"line1\nline2\",x\n");
  CsvReader reader(in);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[0], "line1\nline2");
}

TEST(MiniJson, NestingUpToTheLimitParses) {
  const std::string doc = std::string(64, '[') + std::string(64, ']');
  const minijson::Value value = minijson::parse(doc);
  EXPECT_EQ(value.kind, minijson::Value::Kind::kArray);
  ASSERT_EQ(value.items.size(), 1u);
  EXPECT_EQ(value.items[0].kind, minijson::Value::Kind::kArray);
}

TEST(MiniJson, NestingPastTheLimitThrows) {
  // Arrays and objects both count toward the depth; the parser stops at
  // the 65th level instead of recursing through the whole document.
  const char* const opens[] = {"[", "{\"k\": "};
  for (const char* open : opens) {
    std::string doc;
    for (int i = 0; i < 65; ++i) doc += open;
    try {
      minijson::parse(doc);
      ADD_FAILURE() << "accepted 65 levels of " << open;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "json: nesting deeper than 64");
    }
  }
  try {
    minijson::parse(std::string(2'000'000, '['));
    ADD_FAILURE() << "accepted 2,000,000 levels";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "json: nesting deeper than 64");
  }
}

/// `what()` of the error `read` throws on the first item of `doc`.
template <typename Read>
std::string json_error(const std::string& doc, Read read) {
  const minijson::Value value = minijson::parse(doc);
  try {
    read(value.items.at(0));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(MiniJson, NumbersConvertInFull) {
  const auto i64 = [](const minijson::Value& v) {
    return minijson::as_i64(v, "n");
  };
  const auto dbl = [](const minijson::Value& v) {
    return minijson::as_double(v, "n");
  };
  const auto u64 = [](const minijson::Value& v) {
    return minijson::as_u64_string(v, "seed");
  };
  // Each of these read as a different, valid-looking value before.
  for (const char* doc : {"[1.5]", "[1-2]", "[1e3]", "[--1]", "[-]",
                          "[9223372036854775808]",
                          "[-9223372036854775809]"}) {
    EXPECT_EQ(json_error(doc, i64).rfind("json: field \"n\"", 0), 0u)
        << doc;
  }
  for (const char* doc : {"[1e999]", "[1.5.2]", "[1-2]", "[-]"}) {
    EXPECT_EQ(json_error(doc, dbl).rfind("json: field \"n\"", 0), 0u)
        << doc;
  }
  for (const char* doc : {"[\"-1\"]", "[\"1.5\"]", "[\" 1\"]", "[\"\"]",
                          "[\"0x10\"]", "[\"18446744073709551616\"]"}) {
    EXPECT_EQ(json_error(doc, u64).rfind("json: field \"seed\"", 0), 0u)
        << doc;
  }

  const auto first = [](const char* doc) {
    return minijson::parse(doc).items.at(0);
  };
  EXPECT_EQ(i64(first("[-9223372036854775808]")),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(i64(first("[9223372036854775807]")),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(i64(first("[-7]")), -7);
  EXPECT_EQ(i64(first("[0]")), 0);
  EXPECT_DOUBLE_EQ(dbl(first("[-2.5e-3]")), -2.5e-3);
  EXPECT_EQ(u64(first("[\"18446744073709551615\"]")),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Csv, WriterQuotesOnlyWhenNeeded) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(out.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Csv, WriterRowVariadicFormatsNumbers) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.row("x", 42, 1.5);
  EXPECT_TRUE(out.str().rfind("x,42,", 0) == 0);
}

TEST(Csv, RoundTripThroughReader) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a,1", "b"});
  std::istringstream in(out.str());
  CsvReader reader(in, /*has_header=*/false);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[0], "a,1");
  EXPECT_EQ(row[1], "b");
}

TEST(Csv, ParseDoubleAcceptsAndRejects) {
  EXPECT_DOUBLE_EQ(*parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*parse_double("  7 "), 7.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
}

TEST(Csv, ParseDoubleRejectsNonFinite) {
  for (const char* field : {"nan", "NaN", "inf", "-inf", " inf ", "-nan",
                            "infinity", "1e400"}) {
    EXPECT_FALSE(parse_double(field).has_value()) << field;
  }
  EXPECT_DOUBLE_EQ(*parse_double("1e300"), 1e300);
}

TEST(Csv, ParseIntAcceptsAndRejects) {
  EXPECT_EQ(*parse_int("-12"), -12);
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

// ----------------------------------------------------------------- table

TEST(TextTable, AlignsColumnsAndPrintsRule) {
  TextTable table({"name", "value"});
  table.row("alpha", 1.0);
  table.row("b", 22.5);
  std::ostringstream out;
  table.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, FormatsExtremeDoublesInScientific) {
  EXPECT_NE(TextTable::format_cell(1e9).find('e'), std::string::npos);
  EXPECT_EQ(TextTable::format_cell(1.5), "1.500");
}

// --------------------------------------------------------------- parallel

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  std::vector<int> hits(500, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; }, 4);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL(); }, 4);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          8, [](std::size_t i) {
            if (i == 3) throw std::runtime_error("boom");
          },
          2),
      std::runtime_error);
}

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

// ---------------------------------------------------------------- expect

TEST(Expect, RequireThrowsWithContext) {
  try {
    DOPE_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
  }
}

}  // namespace
}  // namespace dope
