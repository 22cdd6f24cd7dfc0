// Tests for the extension features: RAPL per-node capping, online power
// classification, and the oracle / per-node capping ablation schemes.
#include <gtest/gtest.h>

#include <memory>

#include "antidope/antidope.hpp"
#include "antidope/online_classifier.hpp"
#include "cluster/cluster.hpp"
#include "schemes/oracle.hpp"
#include "schemes/rapl_capping.hpp"
#include "server/rapl.hpp"
#include "workload/generator.hpp"

namespace dope {
namespace {

using workload::Catalog;

// -------------------------------------------------------------------- RAPL

class RaplTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  workload::Catalog catalog_ = Catalog::standard();
  power::DvfsLadder ladder_ = power::DvfsLadder::make();
  server::ServerConfig config_{.queue_capacity = 64,
                               .queue_deadline = 0,
                               .dvfs_latency = 0};
  server::ServerNode node_{engine_, 0, catalog_,
                           power::ServerPowerModel({}, ladder_), config_,
                           [](const workload::RequestRecord&) {}};

  void load_kmeans(int n) {
    for (int i = 0; i < n; ++i) {
      workload::Request r;
      r.type = Catalog::kKMeans;
      r.size_factor = 1e6;  // pin the active set
      node_.submit(std::move(r));
    }
  }
};

TEST_F(RaplTest, UncappedNodeRunsAtMax) {
  server::RaplInterface rapl(node_);
  EXPECT_FALSE(rapl.cap().has_value());
  rapl.enforce();  // no-op without a cap
  EXPECT_EQ(node_.target_level(), ladder_.max_level());
}

TEST_F(RaplTest, CapSelectsHighestFittingLevel) {
  load_kmeans(4);  // 38 idle + 4x21 -> clamped 100 W at max
  server::RaplInterface rapl(node_);
  rapl.set_cap(Watts{90.0});
  engine_.run_until(kSecond);
  EXPECT_LE(node_.estimate_power_at(node_.level()), Watts{90.0});
  // One level higher must violate the cap (highest fitting level).
  if (node_.level() < ladder_.max_level()) {
    EXPECT_GT(node_.estimate_power_at(node_.level() + 1), Watts{90.0});
  }
}

TEST_F(RaplTest, CapBelowIdleFloorsAtMinLevel) {
  load_kmeans(4);
  server::RaplInterface rapl(node_);
  rapl.set_cap(Watts{10.0});  // below even idle power: RAPL can't power off
  engine_.run_until(kSecond);
  EXPECT_EQ(node_.level(), ladder_.min_level());
}

TEST_F(RaplTest, ClearCapRestoresMax) {
  load_kmeans(4);
  server::RaplInterface rapl(node_);
  rapl.set_cap(Watts{80.0});
  engine_.run_until(kSecond);
  ASSERT_LT(node_.level(), ladder_.max_level());
  rapl.clear_cap();
  engine_.run_until(2 * kSecond);
  EXPECT_EQ(node_.level(), ladder_.max_level());
  EXPECT_FALSE(rapl.cap().has_value());
}

TEST_F(RaplTest, EnforceReactsToLoadChanges) {
  server::RaplInterface rapl(node_);
  rapl.set_cap(Watts{60.0});
  engine_.run_until(kSecond);
  EXPECT_EQ(node_.level(), ladder_.max_level());  // idle fits easily
  load_kmeans(2);  // 38 + 42 = 80 > 60
  rapl.enforce();
  engine_.run_until(2 * kSecond);
  EXPECT_LT(node_.level(), ladder_.max_level());
}

TEST_F(RaplTest, RejectsNonPositiveCap) {
  server::RaplInterface rapl(node_);
  EXPECT_THROW(rapl.set_cap(Watts{0.0}), std::invalid_argument);
}

// ------------------------------------------------------- online classifier

TEST(OnlineClassifier, LearnsHeavyTypeFromIngestedSamples) {
  auto classifier = antidope::OnlineClassifier::untrained(4);
  for (int i = 0; i < 20; ++i) classifier.ingest(2, Watts{18.0});
  EXPECT_TRUE(classifier.suspicious(2));
  EXPECT_FALSE(classifier.suspicious(0));
  EXPECT_NEAR(classifier.estimate(2).value(), 18.0, 1e-9);
  EXPECT_EQ(classifier.reclassifications(), 1u);
}

TEST(OnlineClassifier, RequiresMinimumEvidence) {
  // Ten observations are needed before a type's estimate is trusted.
  auto classifier = antidope::OnlineClassifier::untrained(2);
  for (int i = 0; i < 9; ++i) classifier.ingest(0, Watts{30.0});
  EXPECT_FALSE(classifier.suspicious(0));
  classifier.ingest(0, Watts{30.0});
  EXPECT_TRUE(classifier.suspicious(0));
}

TEST(OnlineClassifier, HysteresisPreventsFlapping) {
  // Suspect at 10 W, released only below 8 W (20 % hysteresis); the
  // EWMA moves 0.2 of the way to each new sample.
  auto classifier = antidope::OnlineClassifier::untrained(1);
  for (int i = 0; i < 10; ++i) classifier.ingest(0, Watts{12.0});
  EXPECT_TRUE(classifier.suspicious(0));
  // Five 9 W samples: 9 + 3 * 0.8^5 = 9.98 W, inside the band.
  for (int i = 0; i < 5; ++i) classifier.ingest(0, Watts{9.0});
  EXPECT_NEAR(classifier.estimate(0).value(), 9.0 + 3.0 * 0.32768, 1e-9);
  EXPECT_TRUE(classifier.suspicious(0));
  // Four 7 W samples leave the EWMA at 8.22 W: still suspect.
  for (int i = 0; i < 4; ++i) classifier.ingest(0, Watts{7.0});
  EXPECT_GT(classifier.estimate(0), Watts{8.0});
  EXPECT_TRUE(classifier.suspicious(0));
  // The fifth takes it to 7.98 W, below the release point.
  classifier.ingest(0, Watts{7.0});
  EXPECT_LT(classifier.estimate(0), Watts{8.0});
  EXPECT_FALSE(classifier.suspicious(0));
  EXPECT_EQ(classifier.reclassifications(), 2u);
}

TEST(OnlineClassifier, PriorFlagsPersistWithoutEvidence) {
  const antidope::SuspectList prior(std::vector<bool>{true, false});
  antidope::OnlineClassifier classifier(2, prior);
  EXPECT_TRUE(classifier.suspicious(0));
  EXPECT_FALSE(classifier.suspicious(1));
}

TEST(OnlineClassifier, ObserveAttributesNodePowerToActiveTypes) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  server::ServerNode node(engine, 0, catalog,
                          power::ServerPowerModel({}, ladder),
                          {.queue_capacity = 16, .queue_deadline = 0},
                          [](const workload::RequestRecord&) {});
  for (int i = 0; i < 2; ++i) {
    workload::Request r;
    r.type = Catalog::kKMeans;
    r.size_factor = 100.0;
    node.submit(std::move(r));
  }
  auto classifier = antidope::OnlineClassifier::untrained(catalog.size());
  for (int i = 0; i < 10; ++i) classifier.observe(node);
  // Two K-means at 21 W each: the attributed share is ~21 W.
  EXPECT_NEAR(classifier.estimate(Catalog::kKMeans).value(), 21.0, 1.0);
  EXPECT_TRUE(classifier.suspicious(Catalog::kKMeans));
}

TEST(OnlineClassifier, ValidatesInputs) {
  EXPECT_THROW(antidope::OnlineClassifier::untrained(0),
               std::invalid_argument);
  auto classifier = antidope::OnlineClassifier::untrained(2);
  EXPECT_THROW(classifier.ingest(5, Watts{1.0}), std::invalid_argument);
  EXPECT_THROW(classifier.ingest(0, Watts{-1.0}), std::invalid_argument);
}

// -------------------------------------- online learning inside Anti-DOPE

TEST(OnlineAntiDope, LearnsUnprofiledAttackUrlAndReroutes) {
  // The operator never profiled anything: the initial suspect list is
  // empty, so at first the K-means flood spreads over the innocent pool.
  // The online classifier must learn its power and pull it into the
  // suspect pool.
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cc.budget_level = power::BudgetLevel::kLow;
  cc.battery_runtime = 2 * kMinute;
  cluster::Cluster cluster(engine, catalog, cc);

  antidope::AntiDopeConfig config;
  config.suspect_list = antidope::SuspectList(
      std::vector<bool>(catalog.size(), false));  // nothing profiled
  config.online_learning = true;
  auto scheme_ptr = std::make_unique<antidope::AntiDopeScheme>(config);
  auto* scheme = scheme_ptr.get();
  cluster.install_scheme(std::move(scheme_ptr));

  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kKMeans);
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());

  engine.run_until(kMinute);
  ASSERT_NE(scheme->classifier(), nullptr);
  EXPECT_TRUE(scheme->classifier()->suspicious(Catalog::kKMeans));
  EXPECT_TRUE(scheme->suspects().suspicious(Catalog::kKMeans));
  // After learning, innocent-pool servers shed the attack again.
  engine.run_until(3 * kMinute);
  std::size_t innocent_load = 0;
  for (std::size_t i = 2; i < cluster.num_servers(); ++i) {
    innocent_load += cluster.server(i).load();
  }
  EXPECT_LT(innocent_load, 20u);
}

TEST(OnlineAntiDope, LightTypesStayInnocent) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 4;
  cluster::Cluster cluster(engine, catalog, cc);
  antidope::AntiDopeConfig config;
  config.online_learning = true;
  auto scheme_ptr = std::make_unique<antidope::AntiDopeScheme>(config);
  auto* scheme = scheme_ptr.get();
  cluster.install_scheme(std::move(scheme_ptr));

  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::single(Catalog::kTextCont);
  normal.rate_rps = 400.0;
  normal.num_sources = 64;
  workload::TrafficGenerator gen(engine, catalog, normal,
                                 cluster.edge_sink());
  engine.run_until(2 * kMinute);
  EXPECT_FALSE(scheme->suspects().suspicious(Catalog::kTextCont));
}

// ------------------------------------------------------------------ oracle

TEST(Oracle, QuarantinesAttackTrafficPerfectly) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cc.budget_level = power::BudgetLevel::kLow;
  cluster::Cluster cluster(engine, catalog, cc);
  cluster.install_scheme(std::make_unique<schemes::OracleScheme>());

  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kKMeans);
  attack.rate_rps = 300.0;
  attack.num_sources = 32;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());
  engine.run_until(10 * kSecond);
  std::size_t clean_load = 0;
  for (std::size_t i = 2; i < cluster.num_servers(); ++i) {
    clean_load += cluster.server(i).load();
  }
  EXPECT_EQ(clean_load, 0u);
}

TEST(Oracle, LegitimateHeavyRequestsAreUnaffected) {
  // The oracle's whole advantage: legit Colla-Filt users do NOT share
  // the quarantine pool.
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cluster::Cluster cluster(engine, catalog, cc);
  cluster.install_scheme(std::make_unique<schemes::OracleScheme>());
  workload::Request legit;
  legit.type = Catalog::kCollaFilt;
  legit.ground_truth_attack = false;
  cluster.ingest(std::move(legit));
  std::size_t quarantine_load =
      cluster.server(0).load() + cluster.server(1).load();
  EXPECT_EQ(quarantine_load, 0u);
}

TEST(Oracle, ValidatesConfig) {
  EXPECT_THROW(schemes::OracleScheme(0.0), std::invalid_argument);
  EXPECT_THROW(schemes::OracleScheme(1.0), std::invalid_argument);
}

// ------------------------------------------------------- per-node capping

TEST(RaplCapping, ThrottlesOnlyHotNodes) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 4;
  cc.budget_override = Watts{250.0};
  cluster::Cluster cluster(engine, catalog, cc);
  auto scheme_ptr = std::make_unique<schemes::RaplCappingScheme>();
  auto* scheme = scheme_ptr.get();
  cluster.install_scheme(std::move(scheme_ptr));

  // Pin heavy work on servers 0 and 1 only (long requests).
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 4; ++i) {
      workload::Request r;
      r.type = Catalog::kKMeans;
      r.size_factor = 10'000.0;
      cluster.server(static_cast<std::size_t>(s)).submit(std::move(r));
    }
  }
  engine.run_until(10 * kSecond);
  EXPECT_TRUE(scheme->capping());
  // Hot nodes throttle; idle nodes keep their frequency.
  EXPECT_LT(cluster.server(0).level(), cluster.ladder().max_level());
  EXPECT_EQ(cluster.server(3).level(), cluster.ladder().max_level());
}

TEST(RaplCapping, ReleasesCapsWhenLoadSubsides) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 4;
  cc.budget_override = Watts{280.0};
  cluster::Cluster cluster(engine, catalog, cc);
  auto scheme_ptr = std::make_unique<schemes::RaplCappingScheme>();
  cluster.install_scheme(std::move(scheme_ptr));

  workload::GeneratorConfig burst;
  burst.mixture = workload::Mixture::single(Catalog::kKMeans);
  burst.rate_rps = 300.0;
  burst.stop = 30 * kSecond;
  workload::TrafficGenerator gen(engine, catalog, burst,
                                 cluster.edge_sink());
  engine.run_until(3 * kMinute);
  for (auto* node : cluster.servers()) {
    EXPECT_EQ(node->level(), cluster.ladder().max_level());
  }
}

}  // namespace
}  // namespace dope
