// dope::fuzz — sampler validity, differential oracle, shrinking, and
// repro round-trips.
//
// The load-bearing assertions: (1) sampled cases are always valid and a
// pure function of their seed; (2) a clean campaign over the real
// simulator reports zero oracle violations and merges byte-identically
// for any thread count; (3) a deliberately injected invariant bug — a
// test fixture that relaxes the power cap behind the oracle's back — is
// caught, shrunk to a small reproduction, and survives a repro-file
// round-trip.

#include "fuzz/fuzzer.hpp"

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "fuzz/repro.hpp"
#include "obs/live.hpp"
#include "power/power_model.hpp"

namespace dope {
namespace {

class FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Log::set_level(LogLevel::kOff);  // injected-bug logs are expected
  }
  void TearDown() override { Log::set_level(LogLevel::kWarn); }
};

/// A fast, always-interesting hand-built case: oversubscribed budget,
/// a flood heavy enough to saturate the uncapped cluster (so a relaxed
/// cap visibly escapes the budget envelope), battery, Anti-DOPE.
fuzz::FuzzCase golden_case() {
  fuzz::FuzzCase fuzz_case;
  fuzz_case.case_seed = 42;
  fuzz_case.scheme = scenario::SchemeKind::kAntiDope;
  auto& config = fuzz_case.config;
  config.scheme = scenario::SchemeKind::kNone;
  config.num_servers = 4;
  config.budget = power::BudgetLevel::kLow;
  config.battery_runtime = 2 * kMinute;
  config.normal_rps = 120.0;
  config.attack_rps = 900.0;
  config.duration = 20 * kSecond;
  config.seed = 42;
  return fuzz_case;
}

/// The injected bug: the "operator" silently provisions ten times the
/// budget for the scheme under test. The oracle computes its expectation
/// independently, so both the provisioning math check and the budget
/// envelope must notice.
void relax_cap(scenario::ScenarioConfig& config) {
  config.budget_override = 10.0 * fuzz::expected_budget(config);
}

TEST_F(FuzzTest, SamplerIsAPureFunctionOfTheSeed) {
  const fuzz::ScenarioSampler sampler;
  const auto a = sampler.sample(0xfeedULL);
  const auto b = sampler.sample(0xfeedULL);
  EXPECT_EQ(a.case_seed, b.case_seed);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.label(), b.label());
  std::ostringstream ja, jb;
  fuzz::write_repro(ja, {a, {}});
  fuzz::write_repro(jb, {b, {}});
  EXPECT_EQ(ja.str(), jb.str());  // every field, byte-compared
  // Different seeds draw different cases (overwhelmingly).
  const auto c = sampler.sample(0xbeefULL);
  std::ostringstream jc;
  fuzz::write_repro(jc, {c, {}});
  EXPECT_NE(ja.str(), jc.str());
}

TEST_F(FuzzTest, SampledCasesRespectTheDomain) {
  const fuzz::ScenarioSampler sampler;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const auto fuzz_case =
        sampler.sample(fuzz::ScenarioSampler::derive_case_seed(5, seed));
    const auto& config = fuzz_case.config;
    // The domain: 2-12 servers, 20-90 s windows.
    EXPECT_GE(config.num_servers, 2u);
    EXPECT_LE(config.num_servers, 12u);
    EXPECT_GE(config.duration, 20 * kSecond);
    EXPECT_LE(config.duration, 90 * kSecond);
    EXPECT_EQ(config.scheme, scenario::SchemeKind::kNone);
    EXPECT_EQ(config.seed, fuzz_case.case_seed);
    if (fuzz_case.scheme == scenario::SchemeKind::kShaving) {
      EXPECT_GT(config.battery_runtime, 0) << "Shaving requires a battery";
    }
    EXPECT_GE(config.attack_start, 0);
    EXPECT_LT(config.attack_start, config.duration);
    for (const auto& outage : config.node_outages) {
      EXPECT_LT(outage.server, config.num_servers);
      EXPECT_GT(outage.down, 0);
      EXPECT_LT(outage.at, config.duration);
    }
    for (const auto& step : config.normal_rate_plan) {
      EXPECT_GT(step.at, 0);
      EXPECT_LT(step.at, config.duration);
      EXPECT_GE(step.rate_rps, 0.0);
    }
  }
}

TEST_F(FuzzTest, CaseSeedDerivationIsStable) {
  // Pinned: repro commands printed by old campaigns must keep meaning
  // the same case in newer builds.
  const auto s0 = fuzz::ScenarioSampler::derive_case_seed(1, 0);
  const auto s1 = fuzz::ScenarioSampler::derive_case_seed(1, 1);
  EXPECT_EQ(s0, fuzz::ScenarioSampler::derive_case_seed(1, 0));
  EXPECT_NE(s0, s1);
  EXPECT_NE(s0, fuzz::ScenarioSampler::derive_case_seed(2, 0));
}

TEST_F(FuzzTest, OracleIsCleanOnTheGoldenCase) {
  const auto report = fuzz::run_oracle(golden_case());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.runs, 3u);  // reference + scheme + determinism rerun
}

TEST_F(FuzzTest, OracleCatchesARelaxedCap) {
  fuzz::OracleOptions options;
  options.check_determinism = false;
  options.mutate = relax_cap;
  // Capping, not Anti-DOPE: Anti-DOPE's firewall suppresses the flood
  // on its own, so only a pure power-capper visibly runs away when its
  // cap is relaxed.
  fuzz::FuzzCase fuzz_case = golden_case();
  fuzz_case.scheme = scenario::SchemeKind::kCapping;
  const auto report = fuzz::run_oracle(fuzz_case, options);
  ASSERT_FALSE(report.ok());
  // The cluster's reported budget no longer matches the provisioning
  // math, and the utility feed escapes the independent envelope.
  EXPECT_TRUE(report.has_check("budget_mismatch")) << report.summary();
  EXPECT_TRUE(report.has_check("budget_envelope")) << report.summary();
}

TEST_F(FuzzTest, MultiZoneDowntimeIsJudgedInZoneTime) {
  // A two-zone case with a 60 W breaker: both zones trip and sit dark
  // for most of the 90 s run, so the site-level downtime (summed over
  // zones) exceeds one run's duration while each zone stays in range.
  fuzz::FuzzCase fuzz_case = fuzz::ScenarioSampler{}.sample(
      9268811993652462178ULL);
  ASSERT_EQ(fuzz_case.config.num_zones, 2u);
  fuzz_case.config.breaker = power::BreakerSpec{.rated = Watts{60.0}};
  fuzz_case.config.duration = 90 * kSecond;
  const auto report = fuzz::run_oracle(fuzz_case);
  EXPECT_FALSE(report.has_check("slot_stats")) << report.summary();
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(FuzzTest, ShrinkMinimizesTheInjectedBug) {
  fuzz::OracleOptions oracle;
  oracle.check_determinism = false;
  oracle.mutate = relax_cap;

  // Start from a deliberately bloated failing case.
  fuzz::FuzzCase bloated = golden_case();
  bloated.scheme = scenario::SchemeKind::kCapping;
  bloated.config.duration = 90 * kSecond;
  bloated.config.num_servers = 10;
  bloated.config.node_outages.push_back({1, 12 * kSecond, 5 * kSecond});
  bloated.config.normal_rate_plan.push_back({9 * kSecond, 200.0});
  const auto original = fuzz::run_oracle(bloated, oracle);
  ASSERT_FALSE(original.ok());

  fuzz::ShrinkOptions options;
  options.oracle = oracle;
  const auto shrunk = fuzz::shrink(bloated, original, options);
  EXPECT_GT(shrunk.steps, 0u);
  EXPECT_LE(shrunk.minimized.config.duration, 60 * kSecond);
  EXPECT_LT(shrunk.minimized.config.num_servers,
            bloated.config.num_servers);
  EXPECT_TRUE(shrunk.minimized.config.node_outages.empty());
  ASSERT_FALSE(shrunk.report.ok());

  // Same-bug criterion: the minimized case still trips an original
  // check, and re-judging it fresh reproduces exactly.
  const auto replay = fuzz::run_oracle(shrunk.minimized, oracle);
  bool shares = false;
  for (const auto& violation : original.violations) {
    shares = shares || replay.has_check(violation.check);
  }
  EXPECT_TRUE(shares) << replay.summary();
}

TEST_F(FuzzTest, ShrinkRejectsHealthyInput) {
  fuzz::OracleReport healthy;
  EXPECT_THROW(fuzz::shrink(golden_case(), healthy, {}),
               std::invalid_argument);
}

TEST_F(FuzzTest, ReproRoundTripsByteExactly) {
  const fuzz::ScenarioSampler sampler;
  // A seed with the works: mixtures, rate plans, chaos all appear across
  // this small sweep; round-trip each of them.
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    fuzz::Repro repro;
    repro.fuzz_case =
        sampler.sample(fuzz::ScenarioSampler::derive_case_seed(3, seed));
    repro.checks = {"budget_envelope", "nondeterminism"};
    std::ostringstream first;
    fuzz::write_repro(first, repro);
    std::istringstream stored(first.str());
    const fuzz::Repro loaded = fuzz::read_repro(stored);
    EXPECT_EQ(loaded.fuzz_case.case_seed, repro.fuzz_case.case_seed);
    EXPECT_EQ(loaded.fuzz_case.scheme, repro.fuzz_case.scheme);
    EXPECT_EQ(loaded.checks, repro.checks);
    std::ostringstream second;
    fuzz::write_repro(second, loaded);
    EXPECT_EQ(first.str(), second.str()) << "seed " << seed;
  }
}

TEST_F(FuzzTest, SiteCasesSampleValidAndRoundTripByteExactly) {
  const fuzz::ScenarioSampler sampler;
  // Default-domain samples filtered down to the first 12 multi-zone
  // sites (about 30 % of cases are sites).
  std::size_t sites = 0;
  for (std::uint64_t seed = 0; sites < 12; ++seed) {
    ASSERT_LT(seed, 400u) << "too few site cases sampled";
    const fuzz::FuzzCase fuzz_case =
        sampler.sample(fuzz::ScenarioSampler::derive_case_seed(9, seed));
    const auto& config = fuzz_case.config;
    if (config.num_zones == 1) continue;
    ++sites;
    ASSERT_GE(config.num_zones, 2u);
    ASSERT_LE(config.num_zones, 3u);
    if (!config.zone_weights.empty()) {
      EXPECT_EQ(config.zone_weights.size(), config.num_zones);
    }
    if (config.attack_zone >= 0) {
      EXPECT_LT(config.attack_zone, static_cast<int>(config.num_zones));
      EXPECT_GT(config.attack_rps, 0.0);
    }

    // The site block must survive the repro round trip byte-exactly.
    fuzz::Repro repro{fuzz_case, {"zone_range"}};
    std::ostringstream first;
    fuzz::write_repro(first, repro);
    std::istringstream stored(first.str());
    const fuzz::Repro loaded = fuzz::read_repro(stored);
    EXPECT_EQ(loaded.fuzz_case.config.num_zones, config.num_zones);
    EXPECT_EQ(loaded.fuzz_case.config.glb_policy, config.glb_policy);
    EXPECT_EQ(loaded.fuzz_case.config.site_divider, config.site_divider);
    EXPECT_EQ(loaded.fuzz_case.config.attack_zone, config.attack_zone);
    EXPECT_EQ(loaded.fuzz_case.config.zone_weights, config.zone_weights);
    std::ostringstream second;
    fuzz::write_repro(second, loaded);
    EXPECT_EQ(first.str(), second.str()) << "seed " << seed;
  }
}

TEST_F(FuzzTest, SiteBreakersAreRatedAgainstOneZonesBudget) {
  // The breaker is drawn while the case is still one zone (zones are
  // sampled last, so single-zone cases keep their draws), so its rating
  // scales one zone's level budget. Every zone gets that breaker, so the
  // scale is the right one: some ratings sit below a zone's nameplate,
  // where a flood that drives one zone to its peak can trip it.
  const fuzz::ScenarioSampler sampler;
  std::size_t breakers = 0;
  std::size_t trippable = 0;
  for (std::uint64_t seed = 0; breakers < 8; ++seed) {
    ASSERT_LT(seed, 2000u) << "too few multi-zone cases with a breaker";
    const auto config =
        sampler.sample(fuzz::ScenarioSampler::derive_case_seed(9, seed))
            .config;
    if (config.num_zones == 1 || !config.breaker.has_value()) continue;
    ++breakers;
    auto one_zone = config;
    one_zone.num_zones = 1;
    const Watts zone_budget = fuzz::expected_budget(one_zone);
    const Watts zone_nameplate = power::ServerPowerSpec{}.nameplate *
                                 static_cast<double>(config.num_servers);
    EXPECT_LE(config.breaker->rated, zone_budget * 1.45) << "seed " << seed;
    if (config.breaker->rated < zone_nameplate) ++trippable;
  }
  EXPECT_GT(trippable, 0u);
}

TEST_F(FuzzTest, PreSiteReproFilesParseAsSingleZone) {
  // Repro files written before multi-zone sites existed carry no "site"
  // object; they must keep loading — as the single-zone cases they are.
  std::ostringstream out;
  fuzz::write_repro(out, {golden_case(), {"budget_envelope"}});
  std::string text = out.str();
  const auto begin = text.find("    \"site\": ");
  ASSERT_NE(begin, std::string::npos);
  const auto end = text.find('\n', begin);
  text.erase(begin, end - begin + 1);
  ASSERT_EQ(text.find("\"site\""), std::string::npos);

  std::istringstream in(text);
  const fuzz::Repro loaded = fuzz::read_repro(in);
  EXPECT_EQ(loaded.fuzz_case.config.num_zones, 1u);
  EXPECT_EQ(loaded.fuzz_case.config.attack_zone, -1);
  EXPECT_TRUE(loaded.fuzz_case.config.zone_weights.empty());
}

TEST_F(FuzzTest, ReproRejectsAttackZoneOutsideTheSite) {
  // A one-zone case has no zone 2 to pin the flood to; the loader says
  // so instead of replaying an unpinned flood.
  std::ostringstream out;
  fuzz::write_repro(out, {golden_case(), {"budget_envelope"}});
  std::string text = out.str();
  const std::string field = "\"attack_zone\": -1";
  const auto at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, field.size(), "\"attack_zone\": 2");
  ASSERT_NE(text.find("\"num_zones\": 1,"), std::string::npos);

  std::istringstream in(text);
  EXPECT_THROW(fuzz::read_repro(in), std::runtime_error);
}

TEST_F(FuzzTest, ReproRejectsMalformedDocuments) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return fuzz::read_repro(in);
  };
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("{\"dopefuzz_repro\": 99}"), std::runtime_error);
  EXPECT_THROW(parse("{\"dopefuzz_repro\": 1}"), std::runtime_error);
  EXPECT_THROW(parse("[] trailing"), std::runtime_error);
}

TEST_F(FuzzTest, ReproRejectsMalformedNumbers) {
  // Each edit used to load as some other, valid-looking case: "1.5"
  // read as 1, a seed "-1" as 2^64 - 1, and a count of -1 as SIZE_MAX.
  fuzz::FuzzCase fuzz_case = golden_case();
  fuzz_case.config.node_outages.push_back({1, kSecond, kSecond});
  std::ostringstream out;
  fuzz::write_repro(out, {fuzz_case, {"budget_envelope"}});
  const std::string text = out.str();
  const auto load_with = [&text](const std::string& field,
                                 const std::string& value) {
    std::string edited = text;
    const std::string key = "\"" + field + "\": ";
    const auto at = edited.find(key);
    if (at == std::string::npos) return "no field " + field;
    const auto begin = at + key.size();
    const auto end = edited.find_first_of(",\n", begin);
    edited.replace(begin, end - begin, value);
    std::istringstream in(edited);
    try {
      fuzz::read_repro(in);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto starts_with = [](const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
  };
  ASSERT_EQ(load_with("num_servers", "4"), "accepted");
  ASSERT_EQ(load_with("num_zones", "1"), "accepted");
  ASSERT_EQ(load_with("server", "1"), "accepted");

  for (const auto& [field, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"num_servers", "1.5"},
           {"num_servers", "1-2"},
           {"duration_us", "1.5"},
           {"seed", "\"-1\""},
           {"case_seed", "\"-1\""},
           {"normal_rps", "1e999"},
           {"attack_zone", "1.5"}}) {
    EXPECT_TRUE(starts_with(load_with(field, value), "json: "))
        << field << " = " << value << ": " << load_with(field, value);
  }
  for (const auto& [field, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"num_servers", "-1"},
           {"num_zones", "-1"},
           {"normal_sources", "-1"},
           {"attack_agents", "-1"},
           {"server", "-1"},
           {"normal_sources", "4294967296"},
           {"attack_zone", "4294967296"},
           {"attack_zone", "-4294967297"}}) {
    EXPECT_TRUE(starts_with(load_with(field, value), "repro: "))
        << field << " = " << value << ": " << load_with(field, value);
  }
}

TEST_F(FuzzTest, CleanCampaignMergesByteIdenticallyAcrossThreadCounts) {
  fuzz::CampaignOptions options;
  options.campaign_seed = 11;
  options.cases = 12;

  options.threads = 1;
  const auto serial = fuzz::run_campaign(options);
  EXPECT_TRUE(serial.ok());

  options.threads = 4;
  const auto parallel = fuzz::run_campaign(options);
  std::ostringstream a;
  std::ostringstream b;
  fuzz::write_campaign_json(a, serial);
  fuzz::write_campaign_json(b, parallel);
  EXPECT_EQ(a.str(), b.str());
  ASSERT_EQ(serial.cases.size(), parallel.cases.size());
  for (std::size_t i = 0; i < serial.cases.size(); ++i) {
    EXPECT_EQ(serial.cases[i].case_seed, parallel.cases[i].case_seed);
    EXPECT_EQ(serial.cases[i].label, parallel.cases[i].label);
  }
}

TEST_F(FuzzTest, CampaignCountsInstrumentsAndPublishesLive) {
  obs::Hub hub;
  obs::LiveTap live;
  fuzz::CampaignOptions options;
  options.campaign_seed = 11;
  options.cases = 6;
  options.threads = 2;
  options.obs = &hub;
  options.live = &live;
  const auto result = fuzz::run_campaign(options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(hub.registry().find_counter("fuzz.cases_total")->value(), 6.0);
  EXPECT_EQ(hub.registry().find_counter("fuzz.cases_completed")->value(),
            6.0);
  EXPECT_EQ(hub.registry().find_counter("fuzz.cases_failed")->value(), 0.0);
  obs::LiveSnapshot snap;
  ASSERT_TRUE(live.latest(snap));
  EXPECT_TRUE(snap.done);
  EXPECT_EQ(snap.runs_total, 6u);
  EXPECT_EQ(snap.runs_completed, 6u);
  EXPECT_EQ(snap.runs_failed, 0u);
}

TEST_F(FuzzTest, CampaignCatchesShrinksAndExportsTheInjectedBug) {
  obs::Hub hub;
  fuzz::CampaignOptions options;
  options.campaign_seed = 21;
  options.cases = 2;
  options.threads = 2;
  options.obs = &hub;
  options.oracle.check_determinism = false;
  options.oracle.mutate = relax_cap;
  const auto result = fuzz::run_campaign(options);
  ASSERT_EQ(result.failures.size(), 2u);  // the bug fires on every case
  EXPECT_EQ(hub.registry().find_counter("fuzz.cases_failed")->value(), 2.0);
  EXPECT_GT(hub.registry().find_counter("fuzz.shrink_steps")->value(), 0.0);

  const auto& failure = result.failures.front();
  EXPECT_LE(failure.minimized.config.duration, 60 * kSecond);
  ASSERT_FALSE(failure.minimized_report.ok());

  // The minimized case survives a repro round-trip and still fails for
  // the same reason when re-judged from the parsed document.
  fuzz::Repro repro;
  repro.fuzz_case = failure.minimized;
  for (const auto& violation : failure.minimized_report.violations) {
    repro.checks.push_back(violation.check);
  }
  std::ostringstream out;
  fuzz::write_repro(out, repro);
  std::istringstream in(out.str());
  const fuzz::Repro loaded = fuzz::read_repro(in);
  const auto replay = fuzz::run_oracle(loaded.fuzz_case, options.oracle);
  bool shares = false;
  for (const auto& check : loaded.checks) {
    shares = shares || replay.has_check(check);
  }
  EXPECT_TRUE(shares) << replay.summary();

  // The failure printout carries the ready-to-paste seed command.
  std::ostringstream failures_text;
  fuzz::print_failures(failures_text, result);
  EXPECT_NE(failures_text.str().find("dopefuzz --case-seed"),
            std::string::npos);
}

}  // namespace
}  // namespace dope
