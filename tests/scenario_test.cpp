// Tests for the scenario runner: scheme factory, config plumbing,
// parallel sweeps, CSV export, and a larger-scale invariant run.
#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.hpp"
#include "scenario/scenario.hpp"
#include "sweep/sweep.hpp"

namespace dope::scenario {
namespace {

using workload::Catalog;

TEST(SchemeFactory, NamesMatchTable2) {
  EXPECT_EQ(scheme_name(SchemeKind::kNone), "None");
  EXPECT_EQ(scheme_name(SchemeKind::kCapping), "Capping");
  EXPECT_EQ(scheme_name(SchemeKind::kShaving), "Shaving");
  EXPECT_EQ(scheme_name(SchemeKind::kToken), "Token");
  EXPECT_EQ(scheme_name(SchemeKind::kAntiDope), "Anti-DOPE");
}

TEST(SchemeFactory, MakesEveryScheme) {
  for (const auto kind :
       {SchemeKind::kNone, SchemeKind::kCapping, SchemeKind::kShaving,
        SchemeKind::kToken, SchemeKind::kAntiDope}) {
    const auto scheme = make_scheme(kind);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name(), scheme_name(kind));
  }
}

TEST(RunScenario, PlumbsBudgetOverride) {
  ScenarioConfig config;
  config.budget_override = Watts{123.0};
  config.duration = kSecond;
  config.normal_rps = 1.0;
  const auto r = run_scenario(config);
  EXPECT_DOUBLE_EQ(r.budget.value(), 123.0);
}

TEST(RunScenario, AttackWindowHonoured) {
  ScenarioConfig config;
  config.scheme = SchemeKind::kNone;
  config.normal_rps = 0.0;
  config.attack_rps = 200.0;
  config.attack_start = 10 * kSecond;
  config.attack_stop = 20 * kSecond;
  config.duration = 60 * kSecond;
  const auto r = run_scenario(config);
  // ~2000 attack requests, only inside the window.
  EXPECT_NEAR(static_cast<double>(r.attack_counts.terminal()), 2'000.0,
              200.0);
  // Power returns to idle after the window: the last samples are near
  // the 8-node idle floor.
  ASSERT_FALSE(r.power_timeline.empty());
  EXPECT_NEAR(r.power_timeline.back().value, 8 * 38.0, 5.0);
}

TEST(RunScenario, RatePlanDrivesNormalTraffic) {
  ScenarioConfig config;
  config.normal_rps = 10.0;
  config.normal_rate_plan = {{10 * kSecond, 500.0}, {20 * kSecond, 0.0}};
  config.duration = 40 * kSecond;
  const auto r = run_scenario(config);
  // Roughly 10*10 + 500*10 + 0*20 = 5100 normal requests.
  EXPECT_NEAR(static_cast<double>(r.normal_counts.terminal()), 5'100.0,
              500.0);
}

TEST(RunScenarios, MatchesSequentialRuns) {
  ScenarioConfig a;
  a.scheme = SchemeKind::kCapping;
  a.budget = power::BudgetLevel::kLow;
  a.normal_rps = 100.0;
  a.attack_rps = 200.0;
  a.duration = kMinute;
  ScenarioConfig b = a;
  b.scheme = SchemeKind::kAntiDope;
  const auto batch = run_scenarios({a, b});
  ASSERT_EQ(batch.size(), 2u);
  const auto ra = run_scenario(a);
  const auto rb = run_scenario(b);
  EXPECT_DOUBLE_EQ(batch[0].mean_ms, ra.mean_ms);
  EXPECT_DOUBLE_EQ(batch[1].mean_ms, rb.mean_ms);
  EXPECT_EQ(batch[0].scheme, "Capping");
  EXPECT_EQ(batch[1].scheme, "Anti-DOPE");
}

TEST(Csv, ResultsRoundTripThroughHeaderedCsv) {
  ScenarioConfig config;
  config.duration = kSecond;
  config.normal_rps = 10.0;
  const auto r = run_scenario(config);
  std::ostringstream out;
  write_results_csv(out, {r});
  std::istringstream in(out.str());
  CsvReader reader(in);
  ASSERT_TRUE(reader.column("scheme").has_value());
  ASSERT_TRUE(reader.column("p90_ms").has_value());
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[*reader.column("scheme")], "None");
  EXPECT_TRUE(
      parse_double(row[*reader.column("mean_power_w")]).has_value());
  EXPECT_FALSE(reader.next(row));
}

TEST(Csv, TimelineExport) {
  std::ostringstream out;
  write_timeline_csv(out, {{kSecond, 1.5}, {2 * kSecond, 2.5}});
  std::istringstream in(out.str());
  CsvReader reader(in);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_DOUBLE_EQ(*parse_double(row[0]), 1.0);
  EXPECT_DOUBLE_EQ(*parse_double(row[1]), 1.5);
}

TEST(Scale, LargeClusterKeepsInvariants) {
  // 64 servers, 2000 rps normal + 800 rps attack for two minutes: the
  // invariants that hold at rack scale must hold here too.
  ScenarioConfig config;
  config.num_servers = 64;
  config.scheme = SchemeKind::kAntiDope;
  config.budget = power::BudgetLevel::kLow;
  config.normal_rps = 2'000.0;
  config.normal_sources = 1'024;
  config.attack_rps = 800.0;
  config.attack_agents = 128;
  config.duration = 2 * kMinute;
  const auto r = run_scenario(config);
  EXPECT_LE(r.peak_power, Watts{64 * 100.0 + 1e-6});
  EXPECT_NEAR(r.energy.load_total().value(),
              (r.energy.utility + r.energy.battery).value(), 1.0);
  EXPECT_GT(r.availability, 0.9);
  EXPECT_LE(r.p90_ms, 100.0);
  EXPECT_GT(r.normal_counts.completed, 100'000u);
}

TEST(RunScenarios, HonoursExplicitThreadCount) {
  ScenarioConfig a;
  a.normal_rps = 20.0;
  a.duration = 10 * kSecond;
  ScenarioConfig b = a;
  b.scheme = SchemeKind::kCapping;
  const auto serial = run_scenarios({a, b}, 1);
  const auto parallel = run_scenarios({a, b}, 8);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  EXPECT_DOUBLE_EQ(serial[0].mean_ms, parallel[0].mean_ms);
  EXPECT_DOUBLE_EQ(serial[1].mean_ms, parallel[1].mean_ms);
}

TEST(CliSweep, ThreadsFlagSmoke) {
  // The grid `dopesim_cli --sweep-schemes capping,antidope
  // --sweep-budgets normal,low --threads 2` builds, shrunk to a 10 s
  // window: the --threads value feeds SweepRunner and must not change
  // the merged results.
  sweep::GridSpec grid;
  grid.base.num_servers = 4;
  grid.base.normal_rps = 50.0;
  grid.base.duration = 10 * kSecond;
  grid.base.seed = 42;
  grid.schemes = sweep::parse_scheme_list("capping,antidope");
  grid.budgets = sweep::parse_budget_list("normal,low");
  const auto threaded = sweep::run_grid(grid, 2);
  const auto serial = sweep::run_grid(grid, 1);
  ASSERT_EQ(threaded.size(), 4u);
  EXPECT_EQ(threaded[0].scheme, "Capping");
  EXPECT_EQ(threaded[1].scheme, "Anti-DOPE");
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    EXPECT_DOUBLE_EQ(threaded[i].mean_ms, serial[i].mean_ms);
    EXPECT_DOUBLE_EQ(threaded[i].peak_power.value(),
                     serial[i].peak_power.value());
  }
}

TEST(RunScenario, OneZoneIgnoresSiteOnlySettings) {
  // The golden configuration (tools/check_golden.sh) as a one-zone site:
  // divider, GLB policy, zone weight, reapportion period and a pin to
  // zone 0 have nothing to act on, so the results are byte-identical.
  ScenarioConfig base;
  base.scheme = SchemeKind::kAntiDope;
  base.budget = power::BudgetLevel::kLow;
  base.battery_runtime = 2 * kMinute;
  base.normal_rps = 300.0;
  base.attack_rps = 400.0;
  base.duration = 60 * kSecond;
  base.seed = 42;
  ScenarioConfig varied = base;
  varied.site_divider = site::DividerKind::kHeadroomAware;
  varied.glb_policy = site::GlobalLbPolicy::kLeastLoaded;
  varied.zone_weights = {3.0};
  varied.reapportion_period = kSecond;
  varied.attack_zone = 0;

  const auto a = run_scenario(base);
  const auto b = run_scenario(varied);
  std::ostringstream csv_a;
  std::ostringstream csv_b;
  write_results_csv(csv_a, {a});
  write_results_csv(csv_b, {b});
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_TRUE(a.zones.empty());
  EXPECT_TRUE(b.zones.empty());
}

TEST(RunScenario, ValidatesDuration) {
  ScenarioConfig config;
  config.duration = 0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);
}

}  // namespace
}  // namespace dope::scenario
