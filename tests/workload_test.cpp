// Unit tests for the workload catalog, mixtures, and traffic generation.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/stats.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"

namespace dope::workload {
namespace {

// --------------------------------------------------------------- catalog

TEST(Catalog, StandardContainsPaperWorkloads) {
  const auto catalog = Catalog::standard();
  EXPECT_GE(catalog.size(), 7u);
  EXPECT_EQ(catalog.type(Catalog::kCollaFilt).name, "Colla-Filt");
  EXPECT_EQ(catalog.type(Catalog::kKMeans).name, "K-means");
  EXPECT_EQ(catalog.type(Catalog::kWordCount).name, "Word-Count");
  EXPECT_EQ(catalog.type(Catalog::kTextCont).name, "Text-Cont");
}

TEST(Catalog, IdOfRoundTrips) {
  const auto catalog = Catalog::standard();
  EXPECT_EQ(catalog.id_of("K-means"), Catalog::kKMeans);
  EXPECT_THROW(catalog.id_of("no-such-service"), std::invalid_argument);
}

TEST(Catalog, TypeIdOutOfRangeThrows) {
  const auto catalog = Catalog::standard();
  EXPECT_THROW(catalog.type(static_cast<RequestTypeId>(catalog.size())),
               std::invalid_argument);
}

TEST(Catalog, KMeansHasHighestPerRequestPower) {
  // Paper Fig. 5b: "the query requesting for K-means consumes most power
  // per request".
  const auto catalog = Catalog::standard();
  const Watts kmeans = catalog.type(Catalog::kKMeans).power.p0;
  for (RequestTypeId t = 0; t < catalog.size(); ++t) {
    if (t == Catalog::kKMeans) continue;
    EXPECT_GE(kmeans, catalog.type(t).power.p0);
  }
}

TEST(Catalog, VolumeTypesHaveNegligiblePower) {
  // Paper Fig. 5: volume-based DoS traffic has low power intensity.
  const auto catalog = Catalog::standard();
  EXPECT_LT(catalog.type(Catalog::kSynPacket).power.p0, Watts{2.0});
  EXPECT_LT(catalog.type(Catalog::kUdpPacket).power.p0, Watts{2.0});
  EXPECT_GT(catalog.type(Catalog::kCollaFilt).power.p0, Watts{10.0});
}

TEST(Catalog, ServiceTimeScalesWithFrequencySlowdown) {
  const auto catalog = Catalog::standard();
  const auto& colla = catalog.type(Catalog::kCollaFilt);
  const Duration at_full = colla.service_time(1.0);
  const Duration at_half = colla.service_time(0.5);
  EXPECT_EQ(at_full, colla.base_service_time);
  // alpha = 0.9: slowdown at rel=0.5 is 0.9*2 + 0.1 = 1.9x.
  EXPECT_NEAR(static_cast<double>(at_half),
              1.9 * static_cast<double>(at_full), 2.0);
}

TEST(Catalog, MemoryBoundWorkLessSensitiveToFrequency) {
  const auto catalog = Catalog::standard();
  const auto& colla = catalog.type(Catalog::kCollaFilt);
  const auto& wc = catalog.type(Catalog::kWordCount);
  const double colla_ratio =
      static_cast<double>(colla.service_time(0.5)) /
      static_cast<double>(colla.service_time(1.0));
  const double wc_ratio = static_cast<double>(wc.service_time(0.5)) /
                          static_cast<double>(wc.service_time(1.0));
  EXPECT_GT(colla_ratio, wc_ratio);
}

TEST(Catalog, ServiceTimeScalesWithSize) {
  const auto catalog = Catalog::standard();
  const auto& t = catalog.type(Catalog::kTextCont);
  EXPECT_NEAR(static_cast<double>(t.service_time(1.0, 2.0)),
              2.0 * static_cast<double>(t.service_time(1.0, 1.0)), 2.0);
  EXPECT_THROW(t.service_time(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(t.service_time(0.0, 1.0), std::invalid_argument);
}

TEST(Catalog, ConstructorValidatesProfiles) {
  RequestTypeProfile bad;
  bad.name = "bad";
  bad.base_service_time = 0;  // invalid
  EXPECT_THROW(Catalog({bad}), std::invalid_argument);
  EXPECT_THROW(Catalog(std::vector<RequestTypeProfile>{}),
               std::invalid_argument);
}

// --------------------------------------------------------------- mixture

TEST(Mixture, SingleAlwaysSamplesSameType) {
  const auto m = Mixture::single(Catalog::kKMeans);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.sample(rng), Catalog::kKMeans);
  }
}

TEST(Mixture, SamplesMatchWeights) {
  const Mixture m({0, 1}, {0.25, 0.75});
  Rng rng(2);
  int ones = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ones += m.sample(rng) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(Mixture, AliosNormalIsTextHeavy) {
  const auto m = Mixture::alios_normal();
  Rng rng(3);
  std::map<RequestTypeId, int> counts;
  for (int i = 0; i < 100'000; ++i) counts[m.sample(rng)]++;
  EXPECT_GT(counts[Catalog::kTextCont], counts[Catalog::kCollaFilt]);
  EXPECT_GT(counts[Catalog::kTextCont], 50'000);
}

TEST(Mixture, ValidatesWeights) {
  EXPECT_THROW(Mixture({0, 1}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Mixture({0}, {-1.0}), std::invalid_argument);
  EXPECT_THROW(Mixture({0}, {0.0}), std::invalid_argument);
  EXPECT_THROW(Mixture({}, {}), std::invalid_argument);
}

TEST(Mixture, ExpectationWeighsByProbability) {
  const Mixture m({0, 1}, {0.5, 0.5});
  const double e = m.expectation([](RequestTypeId t) {
    return t == 0 ? 10.0 : 20.0;
  });
  EXPECT_NEAR(e, 15.0, 1e-9);
}

// ------------------------------------------------------------- generator

class GeneratorTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Catalog catalog_ = Catalog::standard();
  std::vector<Request> received_;

  RequestSink sink() {
    return [this](Request&& r) { received_.push_back(std::move(r)); };
  }
};

TEST_F(GeneratorTest, ProducesApproximatelyPoissonRate) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 200.0;
  config.seed = 5;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(30 * kSecond);
  const double got = static_cast<double>(received_.size()) / 30.0;
  EXPECT_NEAR(got, 200.0, 10.0);
  EXPECT_EQ(gen.generated(), received_.size());
}

TEST_F(GeneratorTest, ArrivalsAreTimeOrderedAndStamped) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 100.0;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(5 * kSecond);
  ASSERT_GT(received_.size(), 100u);
  Time prev = -1;
  for (const auto& r : received_) {
    EXPECT_GE(r.arrival, prev);
    prev = r.arrival;
    EXPECT_LE(r.arrival, 5 * kSecond);
  }
}

TEST_F(GeneratorTest, RequestIdsAreUnique) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 500.0;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(10 * kSecond);
  std::set<std::uint64_t> ids;
  for (const auto& r : received_) ids.insert(r.id);
  EXPECT_EQ(ids.size(), received_.size());
}

TEST_F(GeneratorTest, SourcesSpreadAcrossAgents) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 1'000.0;
  config.num_sources = 16;
  config.source_base = 100;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(10 * kSecond);
  std::set<SourceId> sources;
  for (const auto& r : received_) {
    ASSERT_GE(r.source, 100u);
    ASSERT_LT(r.source, 116u);
    sources.insert(r.source);
  }
  EXPECT_EQ(sources.size(), 16u);
}

TEST_F(GeneratorTest, WindowRespected) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 500.0;
  config.start = 2 * kSecond;
  config.stop = 4 * kSecond;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(10 * kSecond);
  ASSERT_FALSE(received_.empty());
  for (const auto& r : received_) {
    EXPECT_GE(r.arrival, 2 * kSecond);
    EXPECT_LT(r.arrival, 4 * kSecond);
  }
}

TEST_F(GeneratorTest, SetRateChangesThroughput) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 100.0;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(10 * kSecond);
  const std::size_t at_low = received_.size();
  gen.set_rate(1'000.0);
  engine_.run_until(20 * kSecond);
  const std::size_t at_high = received_.size() - at_low;
  EXPECT_GT(at_high, at_low * 5);
}

TEST_F(GeneratorTest, ZeroRateParksAndResumes) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 0.0;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(5 * kSecond);
  EXPECT_TRUE(received_.empty());
  gen.set_rate(200.0);
  engine_.run_until(10 * kSecond);
  EXPECT_GT(received_.size(), 500u);
}

TEST_F(GeneratorTest, StopHaltsGeneration) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 100.0;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(5 * kSecond);
  const std::size_t count = received_.size();
  gen.stop();
  engine_.run_until(20 * kSecond);
  EXPECT_EQ(received_.size(), count);
}

TEST_F(GeneratorTest, GroundTruthFlagPropagates) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kCollaFilt);
  config.rate_rps = 100.0;
  config.ground_truth_attack = true;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(kSecond);
  ASSERT_FALSE(received_.empty());
  for (const auto& r : received_) EXPECT_TRUE(r.ground_truth_attack);
}

TEST_F(GeneratorTest, SizeFactorsHaveMeanOne) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kCollaFilt);  // sigma 0.25
  config.rate_rps = 2'000.0;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(20 * kSecond);
  OnlineStats sizes;
  for (const auto& r : received_) sizes.add(r.size_factor);
  EXPECT_NEAR(sizes.mean(), 1.0, 0.02);
  EXPECT_GT(sizes.stddev(), 0.1);
}

TEST_F(GeneratorTest, SetMixtureSwitchesTypes) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kCollaFilt);
  config.rate_rps = 200.0;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  engine_.run_until(5 * kSecond);
  gen.set_mixture(Mixture::single(Catalog::kKMeans));
  const std::size_t split = received_.size();
  engine_.run_until(10 * kSecond);
  for (std::size_t i = 0; i < received_.size(); ++i) {
    EXPECT_EQ(received_[i].type,
              i < split ? Catalog::kCollaFilt : Catalog::kKMeans);
  }
}

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  const auto run = [this] {
    sim::Engine engine;
    std::vector<Time> arrivals;
    GeneratorConfig config;
    config.mixture = Mixture::alios_normal();
    config.rate_rps = 300.0;
    config.seed = 77;
    TrafficGenerator gen(engine, catalog_, config,
                         [&](Request&& r) { arrivals.push_back(r.arrival); });
    engine.run_until(5 * kSecond);
    return arrivals;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(GeneratorTest, RatePlanModulatesOverTime) {
  GeneratorConfig config;
  config.mixture = Mixture::single(Catalog::kTextCont);
  config.rate_rps = 100.0;
  TrafficGenerator gen(engine_, catalog_, config, sink());
  apply_rate_plan(engine_, gen,
                  {{5 * kSecond, 1'000.0}, {10 * kSecond, 0.0}});
  engine_.run_until(15 * kSecond);
  std::size_t early = 0, mid = 0, late = 0;
  for (const auto& r : received_) {
    if (r.arrival < 5 * kSecond) ++early;
    else if (r.arrival < 10 * kSecond) ++mid;
    else ++late;
  }
  EXPECT_GT(mid, early * 3);
  EXPECT_LT(late, 10u);  // a couple of stragglers at most
}

TEST_F(GeneratorTest, RejectsInvalidConfig) {
  GeneratorConfig config;  // empty mixture
  config.rate_rps = 10.0;
  EXPECT_THROW(TrafficGenerator(engine_, catalog_, config, sink()),
               std::invalid_argument);
  config.mixture = Mixture::single(0);
  EXPECT_THROW(TrafficGenerator(engine_, catalog_, config, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace dope::workload
