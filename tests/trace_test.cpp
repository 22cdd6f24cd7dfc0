// Unit tests for Alibaba-style trace parsing and synthetic generation.
#include <gtest/gtest.h>

#include <sstream>

#include "trace/alibaba.hpp"
#include "trace/synthetic.hpp"

namespace dope::trace {
namespace {

// ---------------------------------------------------------------- parser

TEST(Parser, ReadsHeaderlessServerUsage) {
  std::istringstream in(
      "0,1,35.5,60.2,12.0\n"
      "0,2,40.0,55.0,9.0\n"
      "300,1,38.1,61.0,11.5\n");
  const auto records = parse_server_usage(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].timestamp, 0);
  EXPECT_EQ(records[0].machine_id, 1);
  EXPECT_DOUBLE_EQ(records[0].cpu_util, 35.5);
  EXPECT_DOUBLE_EQ(records[2].mem_util, 61.0);
}

TEST(Parser, SkipsOptionalHeaderRow) {
  std::istringstream in(
      "timestamp,machine_id,cpu,mem,disk\n"
      "0,1,10,20,30\n");
  std::size_t bad = 99;
  const auto records = parse_server_usage(in, &bad);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(bad, 0u);  // header is not counted as a bad row
}

TEST(Parser, ToleratesExtraTrailingColumns) {
  // Real v2017 rows carry load1/load5/load15 after disk.
  std::istringstream in("0,7,50,40,30,1.2,1.1,0.9\n");
  const auto records = parse_server_usage(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].disk_util, 30.0);
}

TEST(Parser, CountsMalformedRows) {
  std::istringstream in(
      "0,1,10,20,30\n"
      "junk,row\n"
      "5,abc,1,2,3\n"
      "10,2,11,21,31\n");
  std::size_t bad = 0;
  const auto records = parse_server_usage(in, &bad);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(bad, 2u);
}

TEST(Parser, RoundTripsThroughWriter) {
  const std::vector<UsageRecord> original = {
      {0, 1, 35.5, 60.0, 10.0}, {300, 2, 42.0, 55.5, 12.5}};
  std::ostringstream out;
  write_server_usage(out, original);
  std::istringstream in(out.str());
  const auto parsed = parse_server_usage(in);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].timestamp, original[i].timestamp);
    EXPECT_EQ(parsed[i].machine_id, original[i].machine_id);
    EXPECT_DOUBLE_EQ(parsed[i].cpu_util, original[i].cpu_util);
  }
}

TEST(Summary, ComputesAggregates) {
  const std::vector<UsageRecord> records = {
      {0, 1, 30.0, 0, 0}, {0, 2, 50.0, 0, 0}, {300, 1, 70.0, 0, 0}};
  const auto s = summarize(records);
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.machines, 2u);
  EXPECT_EQ(s.t_begin, 0);
  EXPECT_EQ(s.t_end, 300);
  EXPECT_DOUBLE_EQ(s.mean_cpu, 50.0);
  EXPECT_DOUBLE_EQ(s.max_cpu, 70.0);
}

TEST(Summary, EmptyTraceThrows) {
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

TEST(ClusterUtilization, AveragesPerTimestamp) {
  const std::vector<UsageRecord> records = {
      {300, 1, 20.0, 0, 0}, {0, 1, 30.0, 0, 0},
      {0, 2, 50.0, 0, 0},   {300, 2, 40.0, 0, 0}};
  const auto util = cluster_utilization(records);
  ASSERT_EQ(util.size(), 2u);
  EXPECT_EQ(util[0].timestamp, 0);
  EXPECT_DOUBLE_EQ(util[0].mean_cpu, 40.0);
  EXPECT_EQ(util[1].timestamp, 300);
  EXPECT_DOUBLE_EQ(util[1].mean_cpu, 30.0);
}

TEST(Parser, CountsNonFiniteUtilisationAsMalformed) {
  // from_chars reads "nan" and "inf"; a utilisation never is one.
  std::istringstream in(
      "0,1,10,20,30\n"
      "300,1,nan,0.5,0.3\n"
      "300,2,inf,0.5,0.3\n"
      "300,3,10,-inf,0.3\n"
      "300,4,10,20,NaN\n"
      "600,1,11,21,31\n");
  std::size_t bad = 0;
  const auto records = parse_server_usage(in, &bad);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].timestamp, 600);
  EXPECT_EQ(bad, 4u);
}

TEST(ParserV2018, ReadsMachineUsageSchema) {
  std::istringstream in(
      "m_1,10,35.5,60.2,0,0,1,2,12.5\n"
      "m_2,10,40.0,55.0,0,0,1,2,9.0\n");
  const auto records = parse_machine_usage_v2018(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].machine_id, 1);
  EXPECT_EQ(records[0].timestamp, 10);
  EXPECT_DOUBLE_EQ(records[0].cpu_util, 35.5);
  EXPECT_DOUBLE_EQ(records[0].mem_util, 60.2);
  EXPECT_DOUBLE_EQ(records[0].disk_util, 12.5);
}

TEST(ParserV2018, ToleratesShortRowsAndMissingOptionals) {
  std::istringstream in(
      "m_7,300,50\n"          // only the mandatory columns
      "m_8,300,60,70\n"       // mem but no disk
      "junk\n");
  std::size_t bad = 0;
  const auto records = parse_machine_usage_v2018(in, &bad);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].mem_util, 0.0);
  EXPECT_DOUBLE_EQ(records[1].mem_util, 70.0);
  EXPECT_EQ(bad, 1u);
}

TEST(ParserV2018, CountsNonFiniteUtilisationAsMalformed) {
  // A non-finite CPU utilisation makes the row malformed; a non-finite
  // optional column reads as missing.
  std::istringstream in(
      "m_1,10,35.5\n"
      "m_1,20,nan\n"
      "m_2,20,-inf,60\n"
      "m_3,20,40,inf,0,0,1,2,NaN\n");
  std::size_t bad = 0;
  const auto records = parse_machine_usage_v2018(in, &bad);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(bad, 2u);
  EXPECT_EQ(records[1].machine_id, 3);
  EXPECT_DOUBLE_EQ(records[1].mem_util, 0.0);
  EXPECT_DOUBLE_EQ(records[1].disk_util, 0.0);
}

TEST(ParserAny, SniffsSchemaByMachinePrefix) {
  std::istringstream v2017("0,1,35.5,60.2,12.0\n");
  const auto a = parse_any_usage(v2017);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].machine_id, 1);
  EXPECT_EQ(a[0].timestamp, 0);

  std::istringstream v2018("m_1,10,35.5,60.2,0,0,1,2,12.5\n");
  const auto b = parse_any_usage(v2018);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].machine_id, 1);
  EXPECT_EQ(b[0].timestamp, 10);
}

TEST(ParserAny, BothSchemasFeedTheSamePipeline) {
  std::istringstream v2018(
      "m_1,0,30,0,0,0,0,0,0\n"
      "m_2,0,50,0,0,0,0,0,0\n"
      "m_1,300,70,0,0,0,0,0,0\n");
  const auto util = cluster_utilization(parse_any_usage(v2018));
  ASSERT_EQ(util.size(), 2u);
  EXPECT_DOUBLE_EQ(util[0].mean_cpu, 40.0);
  EXPECT_DOUBLE_EQ(util[1].mean_cpu, 70.0);
}

// -------------------------------------------------------------- synthetic

TEST(Synthetic, ProducesRequestedShape) {
  SyntheticTraceConfig config;
  config.machines = 10;
  config.duration_s = 3'600;
  config.interval_s = 300;
  const auto records = generate_server_usage(config);
  EXPECT_EQ(records.size(), 10u * 12u);
  for (const auto& r : records) {
    EXPECT_GE(r.cpu_util, 0.0);
    EXPECT_LE(r.cpu_util, 100.0);
    EXPECT_GE(r.mem_util, 0.0);
    EXPECT_LE(r.mem_util, 100.0);
  }
}

TEST(Synthetic, MeanUtilizationNearTarget) {
  SyntheticTraceConfig config;
  config.machines = 50;
  config.duration_s = 12 * 3'600;
  config.mean_cpu = 35.0;
  const auto records = generate_server_usage(config);
  const auto s = summarize(records);
  EXPECT_NEAR(s.mean_cpu, 35.0, 5.0);
}

TEST(Synthetic, DiurnalSwingVisibleInClusterSeries) {
  SyntheticTraceConfig config;
  config.machines = 100;
  config.duration_s = 24 * 3'600;
  config.noise_sigma = 1.0;
  config.burst_prob = 0.0;
  config.diurnal_amplitude = 20.0;
  const auto util = cluster_utilization(generate_server_usage(config));
  double lo = 1e9, hi = -1e9;
  for (const auto& p : util) {
    lo = std::min(lo, p.mean_cpu);
    hi = std::max(hi, p.mean_cpu);
  }
  EXPECT_GT(hi - lo, 10.0);  // most of the 20-point amplitude survives
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticTraceConfig config;
  config.machines = 5;
  config.duration_s = 3'600;
  const auto a = generate_server_usage(config);
  const auto b = generate_server_usage(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].cpu_util, b[i].cpu_util);
  }
  config.seed += 1;
  const auto c = generate_server_usage(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cpu_util != c[i].cpu_util) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthetic, ParsesBackThroughAlibabaParser) {
  // The generated records must be consumable by the same pipeline as the
  // real trace — that is the whole point of the substitution.
  SyntheticTraceConfig config;
  config.machines = 4;
  config.duration_s = 1'800;
  const auto records = generate_server_usage(config);
  std::ostringstream out;
  write_server_usage(out, records);
  std::istringstream in(out.str());
  std::size_t bad = 0;
  const auto parsed = parse_server_usage(in, &bad);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(parsed.size(), records.size());
}

TEST(Synthetic, ValidatesConfig) {
  SyntheticTraceConfig config;
  config.machines = 0;
  EXPECT_THROW(generate_server_usage(config), std::invalid_argument);
  config = {};
  config.interval_s = 0;
  EXPECT_THROW(generate_server_usage(config), std::invalid_argument);
}

// -------------------------------------------------------------- rate plan

TEST(RatePlan, MapsUtilizationToRates) {
  const std::vector<UtilPoint> util = {{0, 50.0}, {300, 100.0}};
  const auto plan = to_rate_plan(util, 200.0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].at, 0);
  EXPECT_DOUBLE_EQ(plan[0].rate_rps, 100.0);
  EXPECT_EQ(plan[1].at, 300 * kSecond);
  EXPECT_DOUBLE_EQ(plan[1].rate_rps, 200.0);
}

TEST(RatePlan, TimeCompressionSquashesTimestamps) {
  const std::vector<UtilPoint> util = {{7'200, 50.0}};
  const auto plan = to_rate_plan(util, 100.0, 72.0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].at, 100 * kSecond);  // 7200 s / 72 = 100 s
}

TEST(RatePlan, ValidatesArguments) {
  EXPECT_THROW(to_rate_plan({}, 0.0), std::invalid_argument);
  EXPECT_THROW(to_rate_plan({}, 10.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dope::trace
