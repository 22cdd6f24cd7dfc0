// Tests for the circuit breaker, server power-off semantics, and the
// cluster-level unplanned-outage path (the paper's Fig. 1 failure mode).
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster.hpp"
#include "power/breaker.hpp"
#include "scenario/scenario.hpp"
#include "schemes/baselines.hpp"
#include "workload/generator.hpp"

namespace dope {
namespace {

using workload::Catalog;

// ----------------------------------------------------------------- breaker

TEST(CircuitBreaker, StaysClosedUnderRatedLoad) {
  power::CircuitBreaker breaker({.rated = Watts{100.0}});
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_FALSE(breaker.observe(Watts{100.0}, kSecond));
  }
  EXPECT_FALSE(breaker.tripped());
  EXPECT_DOUBLE_EQ(breaker.heat(), 0.0);
}

TEST(CircuitBreaker, MagneticTripIsImmediate) {
  power::CircuitBreaker breaker(
      {.rated = Watts{100.0}, .instant_trip_multiple = 2.0});
  EXPECT_TRUE(breaker.observe(Watts{200.0}, kMillisecond));
  EXPECT_TRUE(breaker.tripped());
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, ThermalTripFollowsInverseTimeCurve) {
  // heat rate = ratio^2 - 1. At 141% load: rate ~1/s -> ~30 s to trip.
  // At 120%: rate 0.44/s -> ~68 s. Deeper overload trips sooner.
  const auto time_to_trip = [](Watts load) {
    power::CircuitBreaker breaker({.rated = Watts{100.0},
                                   .instant_trip_multiple = 3.0,
                                   .thermal_capacity = 30.0});
    int seconds = 0;
    while (!breaker.tripped() && seconds < 10'000) {
      breaker.observe(load, kSecond);
      ++seconds;
    }
    return seconds;
  };
  const int at_141 = time_to_trip(Watts{141.4});
  const int at_120 = time_to_trip(Watts{120.0});
  EXPECT_NEAR(at_141, 30, 2);
  EXPECT_NEAR(at_120, 68, 4);
  EXPECT_LT(at_141, at_120);
}

TEST(CircuitBreaker, CoolsWhenLoadSubsides) {
  power::CircuitBreaker breaker({.rated = Watts{100.0},
                                 .thermal_capacity = 30.0,
                                 .cooling_rate = 0.5});
  // Build up some heat, then cool.
  for (int i = 0; i < 10; ++i) breaker.observe(Watts{141.4}, kSecond);
  const double hot = breaker.heat();
  ASSERT_GT(hot, 5.0);
  for (int i = 0; i < 30; ++i) breaker.observe(Watts{50.0}, kSecond);
  EXPECT_LT(breaker.heat(), hot);
  EXPECT_FALSE(breaker.tripped());
}

TEST(CircuitBreaker, ShortSpikesRideThrough) {
  // A 2 s spike at 150% must NOT trip a 30 s-capacity breaker — this is
  // the thermal tolerance oversubscription relies on.
  power::CircuitBreaker breaker(
      {.rated = Watts{100.0}, .thermal_capacity = 30.0});
  breaker.observe(Watts{150.0}, 2 * kSecond);
  EXPECT_FALSE(breaker.tripped());
}

TEST(CircuitBreaker, ResetClearsStateButKeepsTripCount) {
  power::CircuitBreaker breaker(
      {.rated = Watts{100.0}, .instant_trip_multiple = 1.5});
  ASSERT_TRUE(breaker.observe(Watts{200.0}, kSecond));
  breaker.reset();
  EXPECT_FALSE(breaker.tripped());
  EXPECT_DOUBLE_EQ(breaker.heat(), 0.0);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, ValidatesSpec) {
  EXPECT_THROW(power::CircuitBreaker({.rated = Watts{0.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      power::CircuitBreaker(
          {.rated = Watts{10.0}, .instant_trip_multiple = 1.0}),
      std::invalid_argument);
}

// --------------------------------------------------------- node power-off

TEST(PowerOff, LosesInFlightWorkAndDropsToZeroPower) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  std::vector<workload::RequestRecord> records;
  server::ServerNode node(
      engine, 0, catalog,
      power::ServerPowerModel({}, power::DvfsLadder::make()), {},
      [&records](const workload::RequestRecord& r) {
        records.push_back(r);
      });
  for (int i = 0; i < 6; ++i) {
    workload::Request r;
    r.type = Catalog::kCollaFilt;
    node.submit(std::move(r));
  }
  ASSERT_EQ(node.active_count(), 4u);
  ASSERT_EQ(node.queue_length(), 2u);
  node.power_off();
  EXPECT_TRUE(node.powered_off());
  EXPECT_FALSE(node.accepting());
  EXPECT_DOUBLE_EQ(node.current_power().value(), 0.0);
  EXPECT_EQ(node.active_count(), 0u);
  EXPECT_EQ(node.queue_length(), 0u);
  ASSERT_EQ(records.size(), 6u);
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, workload::RequestOutcome::kFailedOutage);
  }
  // No zombie completions later.
  engine.run_until(10 * kSecond);
  EXPECT_EQ(records.size(), 6u);
}

TEST(PowerOff, PowerOnRebootsAfterDelay) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  server::ServerNode node(
      engine, 0, catalog,
      power::ServerPowerModel({}, power::DvfsLadder::make()), {},
      [](const workload::RequestRecord&) {});
  node.power_off();
  engine.run_until(kSecond);
  node.power_on(5 * kSecond);
  EXPECT_FALSE(node.powered_off());
  EXPECT_TRUE(node.waking());
  EXPECT_FALSE(node.accepting());
  engine.run_until(10 * kSecond);
  EXPECT_TRUE(node.accepting());
}

TEST(PowerOff, EnergyIsZeroWhileDark) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  server::ServerNode node(
      engine, 0, catalog,
      power::ServerPowerModel({}, power::DvfsLadder::make()), {},
      [](const workload::RequestRecord&) {});
  engine.run_until(kSecond);  // 38 J of idle
  node.power_off();
  engine.run_until(11 * kSecond);  // 10 s dark
  EXPECT_NEAR(node.energy().value(), 38.0, 0.1);
}

// ------------------------------------------------------- cluster outages

cluster::ClusterConfig breaker_cluster(scenario::SchemeKind) {
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cc.budget_level = power::BudgetLevel::kLow;
  cc.breaker = power::BreakerSpec{.rated = Watts{640.0},
                                  .instant_trip_multiple = 2.0,
                                  .thermal_capacity = 10.0,
                                  .cooling_rate = 0.1};
  return cc;
}

TEST(ClusterOutage, UnmanagedDopeTripsTheBreaker) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::Cluster cluster(engine, catalog,
                           breaker_cluster(scenario::SchemeKind::kNone));
  cluster.install_scheme(std::make_unique<schemes::NoScheme>());

  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture(
      {Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount},
      {1.0, 1.0, 1.0});
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());
  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 300.0;
  normal.num_sources = 128;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());

  engine.run_until(5 * kMinute);
  EXPECT_GT(cluster.slot_stats().outages, 0u);
  EXPECT_GT(cluster.slot_stats().downtime, 0);
  // Outage losses show up in the metrics.
  EXPECT_GT(cluster.request_metrics().normal_counts().failed_outage, 0u);
}

TEST(ClusterOutage, ServiceRecoversAfterTheOutage) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  auto cc = breaker_cluster(scenario::SchemeKind::kNone);
  cc.outage_recovery = 10 * kSecond;
  cc.reboot_time = 5 * kSecond;
  cluster::Cluster cluster(engine, catalog, cc);
  cluster.install_scheme(std::make_unique<schemes::NoScheme>());

  // A burst that trips the breaker, then calm traffic.
  workload::GeneratorConfig burst;
  burst.mixture = workload::Mixture::single(Catalog::kKMeans);
  burst.rate_rps = 600.0;
  burst.stop = kMinute;
  workload::TrafficGenerator burst_gen(engine, catalog, burst,
                                       cluster.edge_sink());
  engine.run_until(2 * kMinute);
  ASSERT_GT(cluster.slot_stats().outages, 0u);
  EXPECT_FALSE(cluster.power().in_outage());

  // After recovery the cluster serves again.
  const auto completed_before =
      cluster.request_metrics().normal_counts().completed;
  workload::GeneratorConfig calm;
  calm.mixture = workload::Mixture::single(Catalog::kTextCont);
  calm.rate_rps = 50.0;
  calm.start = engine.now();
  workload::TrafficGenerator calm_gen(engine, catalog, calm,
                                      cluster.edge_sink());
  engine.run_until(engine.now() + kMinute);
  EXPECT_GT(cluster.request_metrics().normal_counts().completed,
            completed_before);
}

TEST(ClusterOutage, CappingPreventsTheTrip) {
  // A budget-respecting scheme keeps the feed below the rating, so the
  // breaker never trips — the whole point of peak power management.
  // (Note: a *pure K-means* flood defeats DVFS entirely here — even the
  // ladder floor exceeds Low-PB because K-means power barely responds to
  // frequency. Colla-Filt is cappable, hence used for this test; the
  // K-means pathology is covered by the Fig. 6 bench.)
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::Cluster cluster(
      engine, catalog, breaker_cluster(scenario::SchemeKind::kCapping));
  cluster.install_scheme(std::make_unique<schemes::CappingScheme>());

  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kCollaFilt);
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());
  engine.run_until(5 * kMinute);
  EXPECT_EQ(cluster.slot_stats().outages, 0u);
}

}  // namespace
}  // namespace dope
