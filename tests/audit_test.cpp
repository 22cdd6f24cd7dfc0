// Tier-3 correctness: the DOPE_AUDIT runtime invariant checks
// (src/common/audit.hpp; see docs/ANALYSIS.md).
//
// The check functions are deliberately not gated on audit::kEnabled, so
// every invariant class can be driven with corrupted state in any build
// configuration. What kEnabled gates is the *instrumented call sites*
// inside battery/cluster/power/antidope/sim — those are exercised here
// through healthy scenario runs (must stay silent) and through the
// byte-identity regression (auditing must not perturb results).

#include "common/audit.hpp"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "battery/battery.hpp"
#include "common/log.hpp"
#include "obs/hub.hpp"
#include "scenario/scenario.hpp"

namespace dope {
namespace {

/// Resets the global violation count around each test.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    audit::reset_violations();
    Log::set_level(LogLevel::kOff);  // violation logs are expected noise
  }
  void TearDown() override {
    audit::reset_violations();
    Log::set_level(LogLevel::kWarn);
  }
};

TEST_F(AuditTest, BatterySocTripsOnCorruptedState) {
  EXPECT_TRUE(
      audit::check_battery_soc(nullptr, 0, Joules{50.0}, Joules{100.0}));
  EXPECT_EQ(audit::violation_count(), 0u);
  EXPECT_FALSE(
      audit::check_battery_soc(nullptr, 0, Joules{-5.0}, Joules{100.0}));
  EXPECT_FALSE(
      audit::check_battery_soc(nullptr, 0, Joules{101.0}, Joules{100.0}));
  EXPECT_EQ(audit::violation_count(), 2u);
}

TEST_F(AuditTest, BatteryRateTripsOnOverRatedPower) {
  EXPECT_TRUE(audit::check_battery_rate(nullptr, 0, Watts{400.0}, Watts{500.0},
                                        "discharge"));
  // rated <= 0 means unlimited by rate.
  EXPECT_TRUE(audit::check_battery_rate(nullptr, 0, Watts{1e9}, Watts{0.0},
                                        "discharge"));
  EXPECT_FALSE(audit::check_battery_rate(nullptr, 0, Watts{501.0},
                                         Watts{500.0},
                                         "discharge"));
  EXPECT_FALSE(audit::check_battery_rate(nullptr, 0, Watts{-1.0}, Watts{500.0},
                                         "charge"));
  EXPECT_EQ(audit::violation_count(), 2u);
}

TEST_F(AuditTest, PowerConservationTripsOnUnbalancedBooks) {
  // Balanced: load fully covered by utility + battery.
  EXPECT_TRUE(audit::check_power_conservation(nullptr, 0, Joules{1000.0},
                                              Joules{700.0}, Joules{300.0}));
  // Battery over-delivery is representable (utility clamps at zero).
  EXPECT_TRUE(audit::check_power_conservation(nullptr, 0, Joules{200.0},
                                              Joules{0.0}, Joules{300.0}));
  // Uncovered load: 1000 J drawn, only 800 J accounted.
  EXPECT_FALSE(audit::check_power_conservation(nullptr, 0, Joules{1000.0},
                                               Joules{500.0}, Joules{300.0}));
  // Utility exceeding the load drawn is a sign error somewhere.
  EXPECT_FALSE(audit::check_power_conservation(nullptr, 0, Joules{100.0},
                                               Joules{200.0}, Joules{0.0}));
  // Negative components never balance.
  EXPECT_FALSE(audit::check_power_conservation(nullptr, 0, Joules{100.0},
                                               Joules{-50.0}, Joules{200.0}));
  EXPECT_EQ(audit::violation_count(), 3u);
}

TEST_F(AuditTest, BudgetFeasibilityTripsOnInfeasibleSolve) {
  EXPECT_TRUE(audit::check_budget_feasible(nullptr, 0, Watts{900.0},
                                           Watts{1000.0},
                                           false));
  // Over allowance is legal only when every node hit the ladder floor.
  EXPECT_TRUE(audit::check_budget_feasible(nullptr, 0, Watts{1200.0},
                                           Watts{1000.0},
                                           true));
  EXPECT_FALSE(audit::check_budget_feasible(nullptr, 0, Watts{1200.0},
                                            Watts{1000.0},
                                            false));
  EXPECT_EQ(audit::violation_count(), 1u);
}

TEST_F(AuditTest, NegativeMetricTrips) {
  EXPECT_TRUE(audit::check_non_negative(nullptr, 0, "latency_us", 12.5));
  EXPECT_TRUE(audit::check_non_negative(nullptr, 0, "latency_us", 0.0));
  EXPECT_FALSE(audit::check_non_negative(nullptr, 0, "latency_us", -1.0));
  EXPECT_EQ(audit::violation_count(), 1u);
}

TEST_F(AuditTest, MonotonicTimeTrips) {
  EXPECT_TRUE(audit::check_monotonic_time(
      static_cast<obs::Hub*>(nullptr), 100, 100));
  EXPECT_TRUE(audit::check_monotonic_time(
      static_cast<obs::Hub*>(nullptr), 100, 101));
  EXPECT_FALSE(audit::check_monotonic_time(
      static_cast<obs::Hub*>(nullptr), 100, 99));
  EXPECT_EQ(audit::violation_count(), 1u);
}

TEST_F(AuditTest, ViolationRaisesWatchdogAlertAndTraceEvent) {
  obs::Hub hub;
  ASSERT_FALSE(audit::check_battery_soc(&hub, 7 * kSecond, Joules{-1.0},
                                        Joules{10.0}));
  EXPECT_TRUE(hub.watchdog().is_firing("audit.battery_soc"));
  ASSERT_EQ(hub.watchdog().alerts().size(), 1u);
  const auto& alert = hub.watchdog().alerts().front();
  EXPECT_EQ(alert.signal, "audit.battery_soc");
  EXPECT_EQ(alert.raised_at, 7 * kSecond);
  EXPECT_TRUE(alert.active());
  // The watchdog mirrors the raise into the trace.
  bool saw_raise = false;
  for (const auto& e : hub.trace().events()) {
    if (e.type == obs::EventType::kAlertRaised) saw_raise = true;
  }
  EXPECT_TRUE(saw_raise);

  // A second violation of the same class reuses the lazily added rule.
  audit::check_battery_soc(&hub, 8 * kSecond, Joules{-2.0}, Joules{10.0});
  EXPECT_EQ(hub.watchdog().rule_count(), 1u);
  EXPECT_EQ(audit::violation_count(), 2u);
}

TEST_F(AuditTest, CompileTimeGateMatchesBuildConfiguration) {
#ifdef DOPE_AUDIT_ENABLED
  EXPECT_TRUE(audit::kEnabled);
#else
  // Release-style builds compile every instrumented call site out: the
  // `if constexpr (audit::kEnabled)` blocks are discarded statements.
  EXPECT_FALSE(audit::kEnabled);
#endif
}

TEST_F(AuditTest, HealthyBatteryPathIsSilent) {
  battery::Battery battery(
      battery::BatterySpec::sized_for(Watts{1000.0}, 2 * kMinute));
  // Over-rate and over-capacity requests are legal: the battery clamps.
  battery.discharge(Watts{5000.0}, kSecond);
  battery.discharge(Watts{1000.0}, 10 * kMinute);
  battery.charge(Watts{5000.0}, kSecond);
  battery.refill();
  battery.charge(Watts{5000.0}, kSecond);
  EXPECT_EQ(audit::violation_count(), 0u);
}

scenario::ScenarioConfig stressed_config() {
  scenario::ScenarioConfig config;
  config.num_servers = 4;
  config.budget = power::BudgetLevel::kLow;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.firewall.emplace();
  config.breaker = power::BreakerSpec{.rated = Watts{900.0}};
  config.attack_rps = 400.0;
  config.duration = 90 * kSecond;
  config.seed = 42;
  return config;
}

TEST_F(AuditTest, HealthyScenarioRunProducesNoViolations) {
  // Exercises every instrumented path (battery, cluster accounting,
  // breaker, DPM solve, engine clock) under attack-driven throttling.
  auto config = stressed_config();
  obs::Hub hub;
  config.obs = &hub;
  scenario::run_scenario(config);
  EXPECT_EQ(audit::violation_count(), 0u);
  EXPECT_EQ(hub.watchdog().active_count(), 0u);
}

TEST_F(AuditTest, AuditInstrumentationDoesNotPerturbResults) {
  // Two identical runs — one with a hub (alert watchdog live), one
  // without — must serialise the same result bytes whether or not the
  // audit tier is compiled in.
  auto config = stressed_config();
  const auto baseline = scenario::run_scenario(config);
  obs::Hub hub;
  config.obs = &hub;
  const auto audited = scenario::run_scenario(config);
  std::ostringstream a;
  std::ostringstream b;
  scenario::write_results_csv(a, {baseline});
  scenario::write_results_csv(b, {audited});
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(audit::violation_count(), 0u);
}

// ---- hard-fail modes (fuzz oracle / gate builds) ----

/// Restores report-only mode even when the test body throws.
class AuditModeTest : public AuditTest {
 protected:
  void TearDown() override {
    audit::set_mode(audit::Mode::kReport);
    AuditTest::TearDown();
  }
};

TEST_F(AuditModeTest, FatalModeThrowsStructuredFailure) {
  audit::set_mode(audit::Mode::kFatal);
  try {
    audit::check_non_negative(nullptr, 7, "queue.depth", -3.0);
    FAIL() << "fatal-mode violation did not throw";
  } catch (const audit::AuditFailure& failure) {
    EXPECT_EQ(failure.violation().check, "negative_metric");
    EXPECT_EQ(failure.violation().t, 7);
    EXPECT_NE(std::string(failure.what()).find("negative_metric"),
              std::string::npos);
  }
  EXPECT_EQ(audit::violation_count(), 1u);  // counted before the throw
}

TEST_F(AuditModeTest, ReportModeStaysThrowFree) {
  audit::set_mode(audit::Mode::kReport);
  EXPECT_NO_THROW(audit::check_non_negative(nullptr, 0, "x", -1.0));
  EXPECT_EQ(audit::violation_count(), 1u);
}

TEST_F(AuditModeTest, CollectorCapturesInsteadOfThrowing) {
  // A collector scope is the caller's failure handling: even in fatal
  // mode the violation is returned, not thrown.
  audit::set_mode(audit::Mode::kFatal);
  audit::ScopedCollector collector;
  EXPECT_NO_THROW(
      audit::check_battery_soc(nullptr, 11, Joules{-5.0}, Joules{100.0}));
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_EQ(collector.violations()[0].check, "battery_soc");
  EXPECT_EQ(collector.violations()[0].t, 11);
  EXPECT_FALSE(collector.violations()[0].message.empty());
}

TEST_F(AuditModeTest, CollectorScopesNestInnermostWins) {
  audit::ScopedCollector outer;
  audit::check_non_negative(nullptr, 0, "outer", -1.0);
  {
    audit::ScopedCollector inner;
    audit::check_non_negative(nullptr, 0, "inner", -2.0);
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_NE(inner.violations()[0].message.find("inner"),
              std::string::npos);
  }
  // Scope restored: new violations land in the outer collector again.
  audit::check_non_negative(nullptr, 0, "outer-again", -3.0);
  ASSERT_EQ(outer.size(), 2u);
  EXPECT_NE(outer.violations()[1].message.find("outer-again"),
            std::string::npos);
}

TEST_F(AuditModeTest, CollectorOnHealthyScenarioStaysEmpty) {
  // The fuzz oracle wraps every run in a collector; a healthy golden
  // run must come back violation-free with identical result bytes.
  audit::set_mode(audit::Mode::kFatal);
  auto config = stressed_config();
  const auto baseline = scenario::run_scenario(config);
  audit::ScopedCollector collector;
  const auto collected = scenario::run_scenario(config);
  EXPECT_TRUE(collector.empty());
  std::ostringstream a;
  std::ostringstream b;
  scenario::write_results_csv(a, {baseline});
  scenario::write_results_csv(b, {collected});
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace dope
