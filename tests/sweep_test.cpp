// Tests for dope::sweep: grid expansion order, config materialisation,
// per-run failure capture, progress metrics, the golden determinism
// property (identical merged bytes for any thread count), the
// CLI-facing grid-spec parsers, and the shared argv + scenario-flag
// reader behind dopesim_cli and dopesweep.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/argv.hpp"
#include "obs/hub.hpp"
#include "sweep/flags.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

namespace dope::sweep {
namespace {

/// A grid small enough to run in milliseconds but wide enough to
/// exercise every axis: 2 budgets × 2 schemes × 2 seeds over a 10 s
/// window of light traffic.
GridSpec small_grid() {
  GridSpec grid;
  grid.base.num_servers = 4;
  grid.base.normal_rps = 50.0;
  grid.base.duration = 10 * kSecond;
  grid.budgets = {power::BudgetLevel::kNormal, power::BudgetLevel::kLow};
  grid.schemes = {scenario::SchemeKind::kCapping,
                  scenario::SchemeKind::kAntiDope};
  grid.seeds = {7, 8};
  return grid;
}

TEST(Grid, SizeIsAxisProduct) {
  EXPECT_EQ(small_grid().size(), 8u);
  GridSpec empty;
  EXPECT_EQ(empty.size(), 1u);  // every axis inherits the base
}

TEST(Grid, ExpandEnumeratesBudgetMajorGridOrder) {
  const auto points = expand(small_grid());
  ASSERT_EQ(points.size(), 8u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
  // budgets outermost, then schemes, then seeds innermost.
  EXPECT_EQ(points[0].budget, power::BudgetLevel::kNormal);
  EXPECT_EQ(points[0].scheme, scenario::SchemeKind::kCapping);
  EXPECT_EQ(points[0].seed, 7u);
  EXPECT_EQ(points[1].seed, 8u);
  EXPECT_EQ(points[2].scheme, scenario::SchemeKind::kAntiDope);
  EXPECT_EQ(points[4].budget, power::BudgetLevel::kLow);
  EXPECT_EQ(points[7].label(), "Low-PB/Anti-DOPE/base/base/seed-8");
}

TEST(Grid, EmptyAxesInheritBase) {
  GridSpec grid;
  grid.base.scheme = scenario::SchemeKind::kShaving;
  grid.base.budget = power::BudgetLevel::kMedium;
  grid.base.seed = 99;
  const auto points = expand(grid);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].scheme, scenario::SchemeKind::kShaving);
  EXPECT_EQ(points[0].budget, power::BudgetLevel::kMedium);
  EXPECT_EQ(points[0].seed, 99u);
  const auto config = materialize(grid, points[0]);
  EXPECT_EQ(config.scheme, scenario::SchemeKind::kShaving);
  EXPECT_EQ(config.seed, 99u);
}

TEST(Grid, MaterializeAppliesAxesAndVariants) {
  GridSpec grid = small_grid();
  grid.attacks = {AttackProfile::dope(250.0)};
  grid.variants = {{"slot-4s", [](scenario::ScenarioConfig& c) {
                      c.slot = 4 * kSecond;
                    }}};
  const auto points = expand(grid);
  const auto config = materialize(grid, points[5]);
  EXPECT_EQ(config.budget, points[5].budget);
  EXPECT_EQ(config.scheme, points[5].scheme);
  EXPECT_EQ(config.seed, points[5].seed);
  EXPECT_DOUBLE_EQ(config.attack_rps, 250.0);
  ASSERT_TRUE(config.attack_mixture.has_value());
  EXPECT_EQ(config.slot, 4 * kSecond);
}

TEST(Grid, MaterializeNeverLeaksTheCallersHub) {
  obs::Hub hub;
  GridSpec grid = small_grid();
  grid.base.obs = &hub;
  grid.base.default_alert_rules = true;
  const auto config = materialize(grid, expand(grid)[0]);
  EXPECT_EQ(config.obs, nullptr);
  EXPECT_FALSE(config.default_alert_rules);
}

TEST(Runner, GoldenDeterminismAcrossThreadCounts) {
  const GridSpec grid = small_grid();
  std::string merged[3];
  const std::size_t thread_counts[] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    const auto sweep =
        SweepRunner({.threads = thread_counts[t]}).run(grid);
    EXPECT_EQ(sweep.failures, 0u);
    std::ostringstream out;
    write_json(out, grid, sweep);
    merged[t] = out.str();
  }
  // Byte-identical merged reports: same aggregate metrics, same run
  // ordering, regardless of worker count or completion order.
  EXPECT_EQ(merged[0], merged[1]);
  EXPECT_EQ(merged[0], merged[2]);
  EXPECT_NE(merged[0].find("\"failures\": 0"), std::string::npos);
}

TEST(Runner, MatchesSerialRunScenario) {
  const GridSpec grid = small_grid();
  const auto sweep = SweepRunner({.threads = 8}).run(grid);
  ASSERT_EQ(sweep.runs.size(), 8u);
  // Spot-check two grid points against a direct serial evaluation.
  for (const std::size_t i : {0u, 5u}) {
    const auto serial =
        scenario::run_scenario(materialize(grid, sweep.runs[i].point));
    ASSERT_TRUE(sweep.runs[i].ok);
    EXPECT_DOUBLE_EQ(sweep.runs[i].result.mean_ms, serial.mean_ms);
    EXPECT_DOUBLE_EQ(sweep.runs[i].result.mean_power.value(),
                     serial.mean_power.value());
  }
}

TEST(Runner, CapturesThrowingRunsAsFailureRecords) {
  GridSpec grid;
  grid.base.num_servers = 4;
  grid.base.normal_rps = 50.0;
  grid.base.duration = 5 * kSecond;
  grid.variants = {
      {"ok", {}},
      {"broken",
       [](scenario::ScenarioConfig& c) { c.duration = 0; }},  // throws
      {"also-ok", {}}};
  const auto sweep = SweepRunner({.threads = 4}).run(grid);
  ASSERT_EQ(sweep.runs.size(), 3u);
  EXPECT_EQ(sweep.failures, 1u);
  EXPECT_TRUE(sweep.runs[0].ok);
  EXPECT_FALSE(sweep.runs[1].ok);
  EXPECT_NE(sweep.runs[1].error.find("duration"), std::string::npos);
  EXPECT_TRUE(sweep.runs[2].ok);  // the rest of the grid still ran

  EXPECT_THROW(sweep.require_all_ok(), std::runtime_error);
  try {
    sweep.require_all_ok();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }

  std::ostringstream out;
  write_json(out, grid, sweep);
  EXPECT_NE(out.str().find("\"ok\": false"), std::string::npos);
  EXPECT_NE(out.str().find("\"failures\": 1"), std::string::npos);
}

TEST(Runner, ReportsProgressThroughTheHub) {
  obs::Hub hub;
  GridSpec grid = small_grid();
  const auto sweep = SweepRunner({.threads = 4, .obs = &hub}).run(grid);
  EXPECT_EQ(sweep.failures, 0u);
  const auto* total = hub.registry().find_counter("sweep.runs_total");
  const auto* completed =
      hub.registry().find_counter("sweep.runs_completed");
  const auto* failed = hub.registry().find_counter("sweep.runs_failed");
  const auto* wall = hub.registry().find_histo("sweep.run_wall_ms");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(completed, nullptr);
  ASSERT_NE(failed, nullptr);
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(total->value(), 8.0);
  EXPECT_DOUBLE_EQ(completed->value(), 8.0);
  EXPECT_DOUBLE_EQ(failed->value(), 0.0);
  EXPECT_EQ(wall->count(), 8u);
  EXPECT_GT(wall->sum(), 0.0);
}

TEST(Runner, RunGridReturnsFlatGridOrderAndThrowsOnFailure) {
  GridSpec grid = small_grid();
  grid.seeds = {7};  // 2 budgets × 2 schemes
  const auto results = run_grid(grid, 2);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].scheme, "Capping");
  EXPECT_EQ(results[1].scheme, "Anti-DOPE");
  EXPECT_EQ(results[2].scheme, "Capping");
  EXPECT_EQ(results[3].scheme, "Anti-DOPE");

  grid.variants = {{"broken", [](scenario::ScenarioConfig& c) {
                      c.duration = 0;
                    }}};
  EXPECT_THROW(run_grid(grid, 2), std::runtime_error);
}

TEST(Report, CsvHasOneRowPerRun) {
  GridSpec grid = small_grid();
  grid.seeds = {7};
  const auto sweep = SweepRunner({.threads = 2}).run(grid);
  std::ostringstream out;
  write_csv(out, sweep);
  std::size_t lines = 0;
  for (const char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1u + 4u);  // header + one row per run
  EXPECT_NE(out.str().find("Anti-DOPE"), std::string::npos);
}

TEST(Parse, ListsAndNames) {
  EXPECT_EQ(split_list("a, b ,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_EQ(parse_scheme("antidope"), scenario::SchemeKind::kAntiDope);
  EXPECT_EQ(parse_budget("medium"), power::BudgetLevel::kMedium);
  EXPECT_THROW(parse_scheme("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_budget("bogus"), std::invalid_argument);
  EXPECT_EQ(parse_seed_list("1,2,3"),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_THROW(parse_seed_list("x"), std::invalid_argument);
}

TEST(Parse, AttackSpecs) {
  const auto none = parse_attack("none", kMinute);
  EXPECT_EQ(none.name, "none");
  EXPECT_DOUBLE_EQ(none.rps, 0.0);

  const auto dope = parse_attack("dope:400", kMinute);
  EXPECT_DOUBLE_EQ(dope.rps, 400.0);
  ASSERT_TRUE(dope.mixture.has_value());
  EXPECT_TRUE(dope.rate_plan.empty());

  const auto pulse = parse_attack("pulse:200:20", 2 * kMinute);
  EXPECT_DOUBLE_EQ(pulse.rps, 200.0);
  // 20 s period over 120 s: 6 on-steps + 6 off-steps.
  ASSERT_EQ(pulse.rate_plan.size(), 12u);
  EXPECT_EQ(pulse.rate_plan[0].at, 0);
  EXPECT_DOUBLE_EQ(pulse.rate_plan[0].rate_rps, 200.0);
  EXPECT_EQ(pulse.rate_plan[1].at, 10 * kSecond);
  EXPECT_DOUBLE_EQ(pulse.rate_plan[1].rate_rps, 0.0);

  EXPECT_THROW(parse_attack("bogus", kMinute), std::invalid_argument);
  EXPECT_THROW(parse_attack("pulse:200", kMinute), std::invalid_argument);
  EXPECT_THROW(parse_attack("pulse:200:0", kMinute),
               std::invalid_argument);
  EXPECT_THROW(parse_attack("dope:x", kMinute), std::invalid_argument);
}

// ------------------------------------------------ argv + scenario flags

/// Reads `argv` (program name omitted) the way dopesim_cli and
/// dopesweep read their scenario flags.
scenario::ScenarioConfig read_flags(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "dopesim_cli");
  cli::ArgCursor args(static_cast<int>(argv.size()), argv.data());
  auto config = default_scenario();
  while (args.next()) {
    if (!read_scenario_flag(args, config)) args.unknown();
  }
  check_scenario_flags(config);
  return config;
}

TEST(Argv, ScenarioFlagsRejectMalformedInput) {
  struct Case {
    std::vector<const char*> argv;
    const char* error;  // expected substring of the message
  };
  const Case cases[] = {
      {{"--servers"}, "missing value for --servers"},
      {{"--servers", "8abc"}, "bad count for --servers: 8abc"},
      {{"--servers", "-1"}, "bad count for --servers: -1"},
      {{"--servers", "2.5"}, "bad count for --servers"},
      {{"--servers", " 8"}, "bad count for --servers"},
      {{"--servers", ""}, "bad count for --servers"},
      {{"--zones", "0"}, "--zones needs at least 1"},
      {{"--zones", "-2"}, "bad count for --zones"},
      {{"--agents", "-4"}, "bad count for --agents"},
      {{"--agents", "4294967296"}, "bad count for --agents"},
      {{"--seed", "42abc"}, "bad seed value for --seed: 42abc"},
      {{"--seed", "-1"}, "bad seed value for --seed"},
      {{"--seed", "1.5"}, "bad seed value for --seed"},
      {{"--seed", "18446744073709551616"}, "bad seed value for --seed"},
      {{"--normal-rps", "300x"}, "bad numeric value for --normal-rps"},
      {{"--duration-s", "nan"}, "bad numeric value for --duration-s"},
      {{"--duration-s", "1e999"}, "bad numeric value for --duration-s"},
      {{"--attack-zone", "0.5"}, "bad integer value for --attack-zone"},
      {{"--attack-zone", "1"}, "--attack-zone 1 is outside the site's 1"},
      {{"--attack-zone", "-2"}, "--attack-zone -2 is outside"},
      {{"--zones", "2", "--attack-zone", "2"}, "--attack-zone 2 is outside"},
      {{"--scheme", "bogus"}, "unknown scheme: bogus"},
      {{"--budget", "tiny"}, "unknown budget level: tiny"},
      {{"--glb", "random"}, "unknown GLB policy: random"},
      {{"--divider", "even"}, "unknown divider: even"},
      {{"--attack-type", "sort"}, "unknown attack type: sort"},
      {{"--bogus"}, "unknown flag: --bogus"},
  };
  for (const auto& c : cases) {
    std::string joined;
    for (const char* arg : c.argv) joined += std::string(arg) + " ";
    SCOPED_TRACE(joined);
    try {
      read_flags(c.argv);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << e.what();
    }
  }
}

TEST(Argv, ScenarioFlagsReadExactValues) {
  // 2^53 + 1: a round-trip through double would run seed ...992.
  EXPECT_EQ(read_flags({"--seed", "9007199254740993"}).seed,
            9007199254740993ull);
  EXPECT_EQ(read_flags({"--seed", "0x2a"}).seed, 42u);

  const auto config = read_flags(
      {"--servers", "3", "--zones", "2", "--attack-zone", "1",
       "--normal-rps", "1e2", "--agents", "16", "--divider", "headroom",
       "--scheme", "capping", "--budget", "high", "--duration-s", "30"});
  EXPECT_EQ(config.num_servers, 3u);
  EXPECT_EQ(config.num_zones, 2u);
  EXPECT_EQ(config.attack_zone, 1);
  EXPECT_DOUBLE_EQ(config.normal_rps, 100.0);
  EXPECT_EQ(config.attack_agents, 16u);
  EXPECT_EQ(config.site_divider, site::DividerKind::kHeadroomAware);
  EXPECT_EQ(config.scheme, scenario::SchemeKind::kCapping);
  EXPECT_EQ(config.budget, power::BudgetLevel::kHigh);
  EXPECT_EQ(config.duration, 30 * kSecond);

  // No flags: the documented defaults.
  const auto defaults = read_flags({});
  EXPECT_EQ(defaults.scheme, scenario::SchemeKind::kAntiDope);
  EXPECT_EQ(defaults.budget, power::BudgetLevel::kLow);
  EXPECT_DOUBLE_EQ(defaults.attack_rps, 400.0);
  EXPECT_EQ(defaults.seed, 42u);
}

TEST(Argv, CursorLeavesOtherFlagsToTheCaller) {
  const char* argv[] = {"dopesweep", "--threads", "4", "--servers", "2"};
  cli::ArgCursor args(5, argv);
  auto config = default_scenario();
  ASSERT_TRUE(args.next());
  EXPECT_FALSE(read_scenario_flag(args, config));  // not consumed
  EXPECT_EQ(args.flag(), "--threads");
  EXPECT_EQ(args.count(), 4u);
  ASSERT_TRUE(args.next());
  EXPECT_TRUE(read_scenario_flag(args, config));
  EXPECT_EQ(config.num_servers, 2u);
  EXPECT_FALSE(args.next());
}

TEST(Argv, GridListsParseWholeFields) {
  EXPECT_THROW(parse_seed_list("42abc"), std::invalid_argument);
  EXPECT_THROW(parse_seed_list("-1"), std::invalid_argument);
  EXPECT_THROW(parse_seed_list("1.5"), std::invalid_argument);
  EXPECT_EQ(parse_seed_list("42, 0x2b"),
            (std::vector<std::uint64_t>{42, 43}));
  EXPECT_EQ(parse_seed_list("9007199254740993"),
            (std::vector<std::uint64_t>{9007199254740993ull}));
  EXPECT_THROW(parse_attack("dope:400abc", kMinute), std::invalid_argument);
  EXPECT_THROW(parse_attack("pulse:300:10s", kMinute),
               std::invalid_argument);
  EXPECT_THROW(parse_attack("pulse:300x:10", kMinute),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse_attack("dope:4e2", kMinute).rps, 400.0);
}

}  // namespace
}  // namespace dope::sweep
