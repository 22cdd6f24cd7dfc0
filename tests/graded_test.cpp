// Tests for the n-level power classifier (Section 5.3) and the graded
// multi-pool Anti-DOPE variant.
#include <gtest/gtest.h>

#include <memory>

#include "antidope/graded.hpp"
#include "antidope/power_classes.hpp"
#include "cluster/cluster.hpp"
#include "workload/generator.hpp"

namespace dope::antidope {
namespace {

using workload::Catalog;

// ------------------------------------------------------- power classifier

TEST(PowerClassifier, OrdersClassesByPower) {
  const auto catalog = Catalog::standard();
  const auto classifier = PowerClassifier::from_catalog(catalog, 3);
  EXPECT_EQ(classifier.num_classes(), 3u);
  // Heaviest types land in the top class, volume packets in the bottom.
  EXPECT_EQ(classifier.class_of(Catalog::kKMeans), 2u);
  EXPECT_EQ(classifier.class_of(Catalog::kCollaFilt), 2u);
  EXPECT_EQ(classifier.class_of(Catalog::kSynPacket), 0u);
  EXPECT_EQ(classifier.class_of(Catalog::kUdpPacket), 0u);
  EXPECT_LT(classifier.class_of(Catalog::kTextCont),
            classifier.class_of(Catalog::kWordCount));
}

TEST(PowerClassifier, ClassCeilingsAscend) {
  const auto catalog = Catalog::standard();
  const auto classifier = PowerClassifier::from_catalog(catalog, 3);
  EXPECT_LT(classifier.class_ceiling(0), classifier.class_ceiling(1));
  EXPECT_LT(classifier.class_ceiling(1), classifier.class_ceiling(2));
  EXPECT_DOUBLE_EQ(classifier.class_ceiling(2).value(), 21.0);  // K-means
}

TEST(PowerClassifier, MembersPartitionTheCatalog) {
  const auto catalog = Catalog::standard();
  const auto classifier = PowerClassifier::from_catalog(catalog, 3);
  std::size_t total = 0;
  for (std::size_t c = 0; c < classifier.num_classes(); ++c) {
    total += classifier.members(c).size();
  }
  EXPECT_EQ(total, catalog.size());
}

TEST(PowerClassifier, EqualPowersShareAClass) {
  const PowerClassifier classifier(
      {Watts{5.0}, Watts{5.0}, Watts{5.0}, Watts{20.0}}, 2);
  EXPECT_EQ(classifier.class_of(0), classifier.class_of(1));
  EXPECT_EQ(classifier.class_of(1), classifier.class_of(2));
  EXPECT_NE(classifier.class_of(0), classifier.class_of(3));
}

TEST(PowerClassifier, DecomposeCountsPerClass) {
  const auto catalog = Catalog::standard();
  const auto classifier = PowerClassifier::from_catalog(catalog, 3);
  const auto q = classifier.decompose(
      {Catalog::kKMeans, Catalog::kKMeans, Catalog::kTextCont,
       Catalog::kSynPacket});
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[2], 2u);
  EXPECT_EQ(q[0] + q[1], 2u);
}

TEST(PowerClassifier, FitsBudgetImplementsEq1) {
  const auto catalog = Catalog::standard();
  const auto classifier = PowerClassifier::from_catalog(catalog, 3);
  // 10 K-means-class requests at full frequency: 10 * 21 W = 210 W.
  std::vector<std::size_t> q(3, 0);
  q[2] = 10;
  EXPECT_TRUE(classifier.fits_budget(q, 1.0, Watts{215.0}, catalog));
  EXPECT_FALSE(classifier.fits_budget(q, 1.0, Watts{205.0}, catalog));
  // Throttling helps, but K-means' low beta limits the saving: at
  // rel = 0.5 each request still draws 21·(0.35·0.125 + 0.65) ≈ 14.6 W.
  EXPECT_FALSE(classifier.fits_budget(q, 0.5, Watts{140.0}, catalog));
  EXPECT_TRUE(classifier.fits_budget(q, 0.5, Watts{150.0}, catalog));
}

TEST(PowerClassifier, Validates) {
  EXPECT_THROW(PowerClassifier({}, 1), std::invalid_argument);
  EXPECT_THROW(PowerClassifier({Watts{1.0}}, 2), std::invalid_argument);
  EXPECT_THROW(PowerClassifier({Watts{1.0}, Watts{-1.0}}, 1),
               std::invalid_argument);
  const PowerClassifier ok({Watts{1.0}, Watts{2.0}}, 2);
  EXPECT_THROW(ok.class_of(9), std::invalid_argument);
  EXPECT_THROW(ok.class_ceiling(5), std::invalid_argument);
}

// ------------------------------------------------------------- the scheme

struct GradedRig {
  sim::Engine engine;
  workload::Catalog catalog = Catalog::standard();
  std::unique_ptr<cluster::Cluster> cluster;
  GradedAntiDopeScheme* scheme = nullptr;

  explicit GradedRig(Watts budget_override = Watts{0.0}) {
    cluster::ClusterConfig cc;
    cc.num_servers = 10;
    cc.budget_level = power::BudgetLevel::kLow;
    cc.budget_override = budget_override;
    cc.battery_runtime = 2 * kMinute;
    cluster = std::make_unique<cluster::Cluster>(engine, catalog, cc);
    auto s = std::make_unique<GradedAntiDopeScheme>();
    scheme = s.get();
    cluster->install_scheme(std::move(s));
  }
};

TEST(GradedAntiDope, BuildsOnePoolPerClass) {
  GradedRig rig;
  // 10 servers, 20% per heavy class: pools of 2 + 2, remainder 6.
  EXPECT_EQ(rig.scheme->pool_size(0), 6u);
  EXPECT_EQ(rig.scheme->pool_size(1), 2u);
  EXPECT_EQ(rig.scheme->pool_size(2), 2u);
}

TEST(GradedAntiDope, RoutesEachClassToItsPool) {
  GradedRig rig;
  // Class 2 (K-means) lands on the top-class pool (highest indices).
  workload::Request heavy;
  heavy.type = Catalog::kKMeans;
  rig.cluster->ingest(std::move(heavy));
  // Class 0 (Text-Cont) lands on the big light pool (low indices).
  workload::Request light;
  light.type = Catalog::kTextCont;
  rig.cluster->ingest(std::move(light));
  std::size_t light_pool_load = 0, heavy_pool_load = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    light_pool_load += rig.cluster->server(i).load();
  }
  for (std::size_t i = 8; i < 10; ++i) {
    heavy_pool_load += rig.cluster->server(i).load();
  }
  EXPECT_EQ(light_pool_load, 1u);
  EXPECT_EQ(heavy_pool_load, 1u);
}

TEST(GradedAntiDope, MidClassFloodSparesTopClassUsers) {
  // The graded variant's raison d'etre: a Word-Count (class 1) flood
  // must not degrade legitimate Colla-Filt (class 2) users, who own a
  // separate pool. Under the binary suspect list they would share.
  GradedRig rig;
  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kWordCount);
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(rig.engine, rig.catalog, attack,
                                        rig.cluster->edge_sink());
  workload::GeneratorConfig legit;
  legit.mixture = workload::Mixture::single(Catalog::kCollaFilt);
  legit.rate_rps = 20.0;  // well within the class-2 pool's capacity
  legit.num_sources = 16;
  legit.seed = 29;
  workload::TrafficGenerator legit_gen(rig.engine, rig.catalog, legit,
                                       rig.cluster->edge_sink());
  rig.cluster->run_for(2 * kMinute);
  const auto& latency = rig.cluster->request_metrics().normal_latency_ms();
  ASSERT_GT(latency.count(), 500u);
  // Colla-Filt completions stay near their unloaded 80 ms service time.
  EXPECT_LT(latency.percentile(90), 200.0);
}

TEST(GradedAntiDope, ThrottlesHeaviestPoolFirstUnderDeficit) {
  GradedRig rig(/*budget_override=*/Watts{470.0});
  // Saturate the top-class pool.
  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kCollaFilt);
  attack.rate_rps = 300.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(rig.engine, rig.catalog, attack,
                                        rig.cluster->edge_sink());
  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 400.0;
  normal.num_sources = 128;
  workload::TrafficGenerator normal_gen(rig.engine, rig.catalog, normal,
                                        rig.cluster->edge_sink());
  rig.cluster->run_for(kMinute);
  // Top class throttled; light pool untouched.
  EXPECT_LT(rig.scheme->pool_level(2), rig.cluster->ladder().max_level());
  EXPECT_EQ(rig.scheme->pool_level(0), rig.cluster->ladder().max_level());
}

TEST(GradedAntiDope, LightestPoolGivesWhenHeavyFloorsCannotFit) {
  // Both heavy pools saturated: even at the ladder floor they and the
  // idle light pool exceed 300 W, so the cascade must reach class 0.
  GradedRig rig(/*budget_override=*/Watts{300.0});
  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kCollaFilt);
  attack.rate_rps = 300.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(rig.engine, rig.catalog, attack,
                                        rig.cluster->edge_sink());
  workload::GeneratorConfig mid = attack;
  mid.mixture = workload::Mixture::single(Catalog::kWordCount);
  mid.source_base = 2'000'000;
  mid.seed = 31;
  workload::TrafficGenerator mid_gen(rig.engine, rig.catalog, mid,
                                     rig.cluster->edge_sink());
  rig.cluster->run_for(kMinute);
  EXPECT_EQ(rig.scheme->pool_level(2), rig.cluster->ladder().min_level());
  EXPECT_EQ(rig.scheme->pool_level(1), rig.cluster->ladder().min_level());
  EXPECT_LT(rig.scheme->pool_level(0), rig.cluster->ladder().max_level());
}

TEST(GradedAntiDope, ValidatesConfig) {
  // Three power classes need at least one server each.
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 2;
  cluster::Cluster cluster(engine, catalog, cc);
  EXPECT_THROW(
      cluster.install_scheme(std::make_unique<GradedAntiDopeScheme>()),
      std::invalid_argument);
}

}  // namespace
}  // namespace dope::antidope
