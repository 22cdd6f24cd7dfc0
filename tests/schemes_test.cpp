// Tests for the baseline power-management schemes: Capping, Shaving, Token
// (plus the scheme utility helpers). Each scenario drives a small cluster
// with an overload and checks the scheme's enforcement invariants.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster.hpp"
#include "schemes/baselines.hpp"
#include "schemes/util.hpp"
#include "workload/generator.hpp"

namespace dope::schemes {
namespace {

using workload::Catalog;

struct Rig {
  sim::Engine engine;
  workload::Catalog catalog = Catalog::standard();
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<workload::TrafficGenerator> traffic;

  explicit Rig(cluster::ClusterConfig config = {},
               power::BudgetLevel level = power::BudgetLevel::kLow) {
    config.budget_level = level;
    cluster = std::make_unique<cluster::Cluster>(engine, catalog, config);
  }

  void offer(workload::Mixture mixture, double rate,
             unsigned sources = 64) {
    workload::GeneratorConfig gen;
    gen.mixture = std::move(mixture);
    gen.rate_rps = rate;
    gen.num_sources = sources;
    gen.seed = 11;
    traffic = std::make_unique<workload::TrafficGenerator>(
        engine, catalog, gen, cluster->edge_sink());
  }
};

// ------------------------------------------------------------------ util

TEST(SchemeUtil, UniformEstimateIsMonotoneInLevel) {
  Rig rig;
  rig.offer(workload::Mixture::single(Catalog::kKMeans), 500.0);
  rig.cluster->run_for(2 * kSecond);
  auto nodes = rig.cluster->servers();
  const auto& ladder = rig.cluster->ladder();
  Watts prev{-1.0};
  for (power::DvfsLevel l = 0; l < ladder.levels(); ++l) {
    const Watts p = estimate_power_at_uniform(nodes, l);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(SchemeUtil, FindUniformLevelRespectsAllowance) {
  Rig rig;
  rig.offer(workload::Mixture::single(Catalog::kCollaFilt), 800.0);
  rig.cluster->run_for(2 * kSecond);
  auto nodes = rig.cluster->servers();
  const auto& ladder = rig.cluster->ladder();
  const Watts full = estimate_power_at_uniform(nodes, ladder.max_level());
  const Watts allowance = full * 0.9;
  const auto level =
      find_uniform_level(nodes, ladder, allowance, ladder.max_level());
  EXPECT_LE(estimate_power_at_uniform(nodes, level), allowance);
  if (level < ladder.max_level()) {
    EXPECT_GT(estimate_power_at_uniform(nodes, level + 1), allowance);
  }
}

TEST(SchemeUtil, FindUniformLevelFloorsAtMin) {
  Rig rig;
  rig.offer(workload::Mixture::single(Catalog::kKMeans), 800.0);
  rig.cluster->run_for(2 * kSecond);
  auto nodes = rig.cluster->servers();
  const auto& ladder = rig.cluster->ladder();
  EXPECT_EQ(find_uniform_level(nodes, ladder, Watts{0.0}, ladder.max_level()),
            ladder.min_level());
}

// ---------------------------------------------------------------- Capping

TEST(Capping, ThrottlesUnderOverload) {
  Rig rig;
  rig.cluster->install_scheme(std::make_unique<CappingScheme>());
  rig.offer(workload::Mixture::single(Catalog::kCollaFilt), 800.0);
  rig.cluster->run_for(30 * kSecond);
  // Servers must have been pulled below max frequency.
  bool any_throttled = false;
  for (auto* n : rig.cluster->servers()) {
    if (n->level() < rig.cluster->ladder().max_level()) any_throttled = true;
  }
  EXPECT_TRUE(any_throttled);
}

TEST(Capping, BringsDemandNearBudget) {
  Rig rig;
  rig.cluster->install_scheme(std::make_unique<CappingScheme>());
  rig.offer(workload::Mixture::single(Catalog::kCollaFilt), 800.0);
  rig.cluster->run_for(60 * kSecond);
  // After convergence, slot demand sits at/below budget (small tolerance
  // for actuation lag at slot boundaries).
  EXPECT_LE(rig.cluster->power().last_slot_demand(),
            rig.cluster->budget() * 1.05);
}

TEST(Capping, RecoversFrequencyAfterAttackEnds) {
  Rig rig;
  rig.cluster->install_scheme(std::make_unique<CappingScheme>());
  rig.offer(workload::Mixture::single(Catalog::kCollaFilt), 800.0);
  rig.cluster->run_for(30 * kSecond);
  rig.traffic->stop();
  rig.cluster->run_for(120 * kSecond);
  for (auto* n : rig.cluster->servers()) {
    EXPECT_EQ(n->level(), rig.cluster->ladder().max_level());
  }
}

TEST(Capping, HurtsEveryoneUniformly) {
  // The collateral-damage property the paper criticises: normal users are
  // throttled exactly like attackers.
  Rig rig;
  rig.cluster->install_scheme(std::make_unique<CappingScheme>());
  // Normal light traffic + attack flood.
  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 200.0;
  normal.num_sources = 128;
  workload::TrafficGenerator normal_gen(rig.engine, rig.catalog, normal,
                                        rig.cluster->edge_sink());
  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kKMeans);
  attack.rate_rps = 500.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(rig.engine, rig.catalog, attack,
                                        rig.cluster->edge_sink());
  rig.cluster->run_for(60 * kSecond);
  const auto& metrics = rig.cluster->request_metrics();
  // All servers are throttled, so normal latency degrades well beyond the
  // unloaded service time.
  EXPECT_GT(metrics.normal_latency_ms().mean(), 10.0);
}

// ---------------------------------------------------------------- Shaving

cluster::ClusterConfig battery_config() {
  cluster::ClusterConfig config;
  config.battery_runtime = 2 * kMinute;
  return config;
}

TEST(Shaving, RequiresBattery) {
  Rig rig;  // no battery
  auto scheme = std::make_unique<ShavingScheme>();
  EXPECT_THROW(rig.cluster->install_scheme(std::move(scheme)),
               std::invalid_argument);
}

TEST(Shaving, BatteryAbsorbsPeakBeforeDvfs) {
  Rig rig(battery_config());
  rig.cluster->install_scheme(std::make_unique<ShavingScheme>());
  rig.offer(workload::Mixture::single(Catalog::kKMeans), 700.0);
  rig.cluster->run_for(20 * kSecond);
  // Battery is discharging...
  EXPECT_GT(rig.cluster->battery()->total_discharged(), Joules{0.0});
  // ...and (early in the attack) frequencies are still untouched.
  for (auto* n : rig.cluster->servers()) {
    EXPECT_EQ(n->level(), rig.cluster->ladder().max_level());
  }
}

TEST(Shaving, LongPeakDrainsBatteryThenThrottles) {
  auto config = battery_config();
  // Tight budget: the saturated cluster runs a ~250 W deficit, so the
  // 2-minute battery empties well inside the run.
  config.budget_override = Watts{550.0};
  Rig rig(config);
  rig.cluster->install_scheme(std::make_unique<ShavingScheme>());
  rig.offer(workload::Mixture::single(Catalog::kKMeans), 700.0);
  // A DOPE peak far longer than the battery can carry.
  rig.cluster->run_for(10 * kMinute);
  EXPECT_LT(rig.cluster->battery()->soc(), 0.1);
  bool any_throttled = false;
  for (auto* n : rig.cluster->servers()) {
    if (n->level() < rig.cluster->ladder().max_level()) any_throttled = true;
  }
  EXPECT_TRUE(any_throttled);
}

TEST(Shaving, RechargesWhenHeadroomReturns) {
  Rig rig(battery_config());
  rig.cluster->install_scheme(std::make_unique<ShavingScheme>());
  rig.offer(workload::Mixture::single(Catalog::kKMeans), 700.0);
  rig.cluster->run_for(90 * kSecond);
  rig.traffic->stop();
  const double drained_soc = rig.cluster->battery()->soc();
  ASSERT_LT(drained_soc, 1.0);
  rig.cluster->run_for(20 * kMinute);
  EXPECT_GT(rig.cluster->battery()->soc(), drained_soc);
}

// ------------------------------------------------------------------ Token

TEST(Token, ShedsRequestsUnderOverload) {
  Rig rig;
  rig.cluster->install_scheme(std::make_unique<TokenScheme>());
  rig.offer(workload::Mixture::single(Catalog::kKMeans), 800.0);
  rig.cluster->run_for(60 * kSecond);
  const auto& metrics = rig.cluster->request_metrics();
  // The paper observes Token dropping >60% of packets under heavy floods.
  EXPECT_GT(metrics.drop_fraction(), 0.4);
  EXPECT_GT(metrics.normal_counts().dropped_by_limit +
                metrics.attack_counts().dropped_by_limit,
            0u);
}

TEST(Token, KeepsPowerNearBudget) {
  Rig rig;
  rig.cluster->install_scheme(std::make_unique<TokenScheme>());
  rig.offer(workload::Mixture::single(Catalog::kKMeans), 800.0);
  rig.cluster->run_for(60 * kSecond);
  EXPECT_LE(rig.cluster->power().last_slot_demand(),
            rig.cluster->budget() * 1.10);
}

TEST(Token, SurvivorsSeeGoodLatency) {
  // Token's deceptive upside: admitted requests are served fast because
  // frequencies never drop.
  Rig rig;
  rig.cluster->install_scheme(std::make_unique<TokenScheme>());
  rig.offer(workload::Mixture::single(Catalog::kTextCont), 2'000.0);
  rig.cluster->run_for(30 * kSecond);
  const auto& latency = rig.cluster->request_metrics().normal_latency_ms();
  if (!latency.empty()) {
    EXPECT_LT(latency.percentile(90), 50.0);
  }
  for (auto* n : rig.cluster->servers()) {
    EXPECT_EQ(n->level(), rig.cluster->ladder().max_level());
  }
}

TEST(Token, AdmitsEverythingUnderLightLoad) {
  Rig rig({}, power::BudgetLevel::kNormal);
  rig.cluster->install_scheme(std::make_unique<TokenScheme>());
  rig.offer(workload::Mixture::alios_normal(), 50.0);
  rig.cluster->run_for(30 * kSecond);
  const auto& metrics = rig.cluster->request_metrics();
  EXPECT_EQ(metrics.normal_counts().dropped_by_limit, 0u);
}

}  // namespace
}  // namespace dope::schemes
