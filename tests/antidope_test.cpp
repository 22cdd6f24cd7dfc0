// Tests for the Anti-DOPE framework: suspect list, offline profiler, PDF
// routing, and the DPM enforcement loop.
#include <gtest/gtest.h>

#include <memory>

#include "antidope/antidope.hpp"
#include "antidope/pdf.hpp"
#include "antidope/profiler.hpp"
#include "antidope/suspect_list.hpp"
#include "cluster/cluster.hpp"
#include "workload/generator.hpp"

namespace dope::antidope {
namespace {

using workload::Catalog;

// ----------------------------------------------------------- suspect list

TEST(SuspectList, FromCatalogSeparatesHeavyFromLight) {
  const auto catalog = Catalog::standard();
  const auto list = SuspectList::from_catalog(catalog, Watts{10.0});
  EXPECT_TRUE(list.suspicious(Catalog::kCollaFilt));
  EXPECT_TRUE(list.suspicious(Catalog::kKMeans));
  EXPECT_TRUE(list.suspicious(Catalog::kWordCount));
  EXPECT_FALSE(list.suspicious(Catalog::kTextCont));
  EXPECT_FALSE(list.suspicious(Catalog::kSynPacket));
  EXPECT_FALSE(list.suspicious(Catalog::kUdpPacket));
  EXPECT_EQ(list.suspect_count(), 3u);
  EXPECT_EQ(list.size(), catalog.size());
}

TEST(SuspectList, FromMeasurementsThresholds) {
  const auto list = SuspectList::from_measurements(
      {Watts{1.0}, Watts{15.0}, Watts{9.99}}, Watts{10.0});
  EXPECT_FALSE(list.suspicious(0));
  EXPECT_TRUE(list.suspicious(1));
  EXPECT_FALSE(list.suspicious(2));
}

TEST(SuspectList, Validates) {
  EXPECT_THROW(SuspectList(std::vector<bool>{}), std::invalid_argument);
  EXPECT_THROW(SuspectList::from_measurements({}, Watts{1.0}),
               std::invalid_argument);
  const SuspectList list(std::vector<bool>{true});
  EXPECT_THROW(list.suspicious(5), std::invalid_argument);
}

// -------------------------------------------------------------- profiler

TEST(Profiler, MeasuredPowersMatchModelGroundTruth) {
  const auto catalog = Catalog::standard();
  ProfilerConfig config;
  config.duration = 20 * kSecond;
  const auto profiles =
      profile_catalog(catalog, {}, power::DvfsLadder::make(), config);
  ASSERT_EQ(profiles.size(), catalog.size());
  for (const auto& p : profiles) {
    const Watts truth = catalog.type(p.type).power.p0;
    // Measurement error should be small (concurrency attribution noise).
    EXPECT_NEAR(p.per_request_power.value(), truth.value(),
                0.15 * truth.value() + 0.5)
        << catalog.type(p.type).name;
  }
}

TEST(Profiler, MeasuredSuspectListMatchesAnalyticOne) {
  const auto catalog = Catalog::standard();
  ProfilerConfig config;
  config.duration = 20 * kSecond;
  const auto profiles =
      profile_catalog(catalog, {}, power::DvfsLadder::make(), config);
  const auto measured =
      SuspectList::from_measurements(per_request_powers(profiles),
                                     Watts{10.0});
  const auto analytic = SuspectList::from_catalog(catalog, Watts{10.0});
  for (workload::RequestTypeId t = 0; t < catalog.size(); ++t) {
    EXPECT_EQ(measured.suspicious(t), analytic.suspicious(t))
        << catalog.type(t).name;
  }
}

TEST(Profiler, CollaFiltSaturatesNodeNearNameplate) {
  // Fig. 5a: Colla-Filt drives the node's power close to nameplate.
  const auto catalog = Catalog::standard();
  ProfilerConfig config;
  config.duration = 20 * kSecond;
  const auto profiles =
      profile_catalog(catalog, {}, power::DvfsLadder::make(), config);
  EXPECT_GT(profiles[Catalog::kCollaFilt].saturated_node_power, Watts{90.0});
  EXPECT_LT(profiles[Catalog::kSynPacket].saturated_node_power, Watts{45.0});
}

TEST(Profiler, ReportsSaturationRates) {
  const auto catalog = Catalog::standard();
  ProfilerConfig config;
  config.duration = 5 * kSecond;
  const auto profiles =
      profile_catalog(catalog, {}, power::DvfsLadder::make(), config);
  // Colla-Filt: 4 cores / 80 ms = 50 rps.
  EXPECT_NEAR(profiles[Catalog::kCollaFilt].saturation_rps, 50.0, 1.0);
  // Text-Cont: 4 / 8 ms = 500 rps.
  EXPECT_NEAR(profiles[Catalog::kTextCont].saturation_rps, 500.0, 10.0);
}

// ------------------------------------------------------------------- PDF

class PdfTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Catalog catalog_ = Catalog::standard();
  cluster::ClusterConfig config_ = [] {
    cluster::ClusterConfig c;
    c.num_servers = 8;
    return c;
  }();
  cluster::Cluster cluster_{engine_, catalog_, config_};
};

TEST_F(PdfTest, RoutesByUrlClass) {
  auto nodes = cluster_.servers();
  std::vector<net::Backend*> suspect_pool(nodes.begin(), nodes.begin() + 2);
  std::vector<net::Backend*> innocent_pool(nodes.begin() + 2, nodes.end());
  PdfRouter router(SuspectList::from_catalog(catalog_, Watts{10.0}),
                   suspect_pool,
                   innocent_pool);

  workload::Request heavy;
  heavy.type = Catalog::kKMeans;
  net::Backend* b1 = router.route(heavy);
  ASSERT_NE(b1, nullptr);
  EXPECT_LT(b1->backend_id(), 2);

  workload::Request light;
  light.type = Catalog::kTextCont;
  net::Backend* b2 = router.route(light);
  ASSERT_NE(b2, nullptr);
  EXPECT_GE(b2->backend_id(), 2);

  EXPECT_EQ(router.suspect_routed(), 1u);
  EXPECT_EQ(router.innocent_routed(), 1u);
}

TEST_F(PdfTest, SuspectTrafficNeverSpillsToInnocentPool) {
  auto nodes = cluster_.servers();
  std::vector<net::Backend*> suspect_pool(nodes.begin(), nodes.begin() + 1);
  std::vector<net::Backend*> innocent_pool(nodes.begin() + 1, nodes.end());
  PdfRouter router(SuspectList::from_catalog(catalog_, Watts{10.0}),
                   suspect_pool,
                   innocent_pool);
  // Even with the suspect node refusing traffic, suspicious requests must
  // not leak into the innocent pool.
  cluster_.server(0).set_accepting(false);
  workload::Request heavy;
  heavy.type = Catalog::kCollaFilt;
  EXPECT_EQ(router.route(heavy), nullptr);
}

TEST_F(PdfTest, InnocentTrafficSpillsWhenPoolUnavailable) {
  auto nodes = cluster_.servers();
  std::vector<net::Backend*> suspect_pool(nodes.begin(), nodes.begin() + 1);
  std::vector<net::Backend*> innocent_pool(nodes.begin() + 1, nodes.end());
  PdfRouter router(SuspectList::from_catalog(catalog_, Watts{10.0}),
                   suspect_pool,
                   innocent_pool);
  for (std::size_t i = 1; i < cluster_.num_servers(); ++i) {
    cluster_.server(i).set_accepting(false);
  }
  workload::Request light;
  light.type = Catalog::kTextCont;
  net::Backend* b = router.route(light);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->backend_id(), 0);
}

// -------------------------------------------------------------- the scheme

struct AntiDopeRig {
  sim::Engine engine;
  workload::Catalog catalog = Catalog::standard();
  std::unique_ptr<cluster::Cluster> cluster;
  AntiDopeScheme* scheme = nullptr;
  std::unique_ptr<workload::TrafficGenerator> normal;
  std::unique_ptr<workload::TrafficGenerator> attack;

  explicit AntiDopeRig(power::BudgetLevel level = power::BudgetLevel::kLow,
                       AntiDopeConfig config = {},
                       Watts budget_override = Watts{0.0},
                       Duration battery_runtime = 2 * kMinute) {
    cluster::ClusterConfig cc;
    cc.num_servers = 8;
    cc.budget_level = level;
    cc.budget_override = budget_override;
    cc.battery_runtime = battery_runtime;
    cluster = std::make_unique<cluster::Cluster>(engine, catalog, cc);
    auto s = std::make_unique<AntiDopeScheme>(config);
    scheme = s.get();
    cluster->install_scheme(std::move(s));
  }

  void start_traffic(double normal_rps, double attack_rps,
                     workload::RequestTypeId attack_type = Catalog::kKMeans) {
    workload::GeneratorConfig n;
    n.mixture = workload::Mixture::alios_normal();
    n.rate_rps = normal_rps;
    n.num_sources = 256;
    n.seed = 21;
    normal = std::make_unique<workload::TrafficGenerator>(
        engine, catalog, n, cluster->edge_sink());
    if (attack_rps > 0) {
      workload::GeneratorConfig a;
      a.mixture = workload::Mixture::single(attack_type);
      a.rate_rps = attack_rps;
      a.num_sources = 64;
      a.source_base = 1'000'000;
      a.ground_truth_attack = true;
      a.seed = 22;
      attack = std::make_unique<workload::TrafficGenerator>(
          engine, catalog, a, cluster->edge_sink());
    }
  }
};

TEST(AntiDope, PartitionsPoolsAtAttach) {
  AntiDopeRig rig;
  EXPECT_EQ(rig.scheme->suspect_pool_size(), 2u);  // 25% of 8
  EXPECT_EQ(rig.scheme->suspects().suspect_count(), 3u);
}

TEST(AntiDope, AttackLandsOnSuspectPoolOnly) {
  AntiDopeRig rig;
  rig.start_traffic(0.0, 400.0);
  rig.engine.run_until(5 * kSecond);
  // Suspect pool (servers 0,1) is loaded; innocent pool stays idle.
  std::size_t suspect_load = 0, innocent_load = 0;
  for (std::size_t i = 0; i < rig.cluster->num_servers(); ++i) {
    (i < 2 ? suspect_load : innocent_load) +=
        rig.cluster->server(i).load();
  }
  EXPECT_GT(suspect_load, 0u);
  EXPECT_EQ(innocent_load, 0u);
}

TEST(AntiDope, IsolationAloneCanNeutraliseDope) {
  // With a Low-PB budget, confining the flood to a 2-node suspect pool
  // bounds the attack's power contribution so hard that the budget is
  // never violated — no throttling needed at all.
  AntiDopeRig rig;
  rig.start_traffic(100.0, 500.0);
  rig.cluster->run_for(60 * kSecond);
  EXPECT_EQ(rig.scheme->suspect_level(), rig.cluster->ladder().max_level());
  EXPECT_EQ(rig.cluster->slot_stats().violation_slots, 0u);
}

TEST(AntiDope, ThrottlesSuspectPoolUnderDope) {
  // Tight explicit budget so the confined attack still causes a deficit.
  AntiDopeRig rig(power::BudgetLevel::kLow, {},
                  /*budget_override=*/Watts{420.0});
  rig.start_traffic(300.0, 500.0, Catalog::kCollaFilt);
  rig.cluster->run_for(60 * kSecond);
  EXPECT_LT(rig.scheme->suspect_level(),
            rig.cluster->ladder().max_level());
}

TEST(AntiDope, InnocentPoolKeepsFullFrequencyUnderDope) {
  AntiDopeRig rig(power::BudgetLevel::kLow, {},
                  /*budget_override=*/Watts{420.0});
  rig.start_traffic(300.0, 500.0, Catalog::kCollaFilt);
  rig.cluster->run_for(60 * kSecond);
  EXPECT_EQ(rig.scheme->innocent_level(),
            rig.cluster->ladder().max_level());
  for (std::size_t i = 2; i < rig.cluster->num_servers(); ++i) {
    EXPECT_EQ(rig.cluster->server(i).level(),
              rig.cluster->ladder().max_level());
  }
}

TEST(AntiDope, BringsDemandWithinBudget) {
  AntiDopeRig rig(power::BudgetLevel::kLow, {},
                  /*budget_override=*/Watts{420.0});
  rig.start_traffic(300.0, 500.0, Catalog::kCollaFilt);
  rig.cluster->run_for(60 * kSecond);
  EXPECT_LE(rig.cluster->power().last_slot_demand(),
            rig.cluster->budget() * 1.10);
}

TEST(AntiDope, NormalLatencyStaysNearBaselineUnderDope) {
  // The headline property: legitimate users barely notice the attack.
  AntiDopeRig rig;
  rig.start_traffic(100.0, 500.0);
  rig.cluster->run_for(60 * kSecond);
  const auto& latency = rig.cluster->request_metrics().normal_latency_ms();
  ASSERT_GT(latency.count(), 100u);
  // 90% of normal traffic is light and lands on 6 full-speed servers; the
  // heavy tail shares the suspect pool with the attack, so the p90 stays
  // in the light group (paper Fig. 15b: only "slightly worse").
  EXPECT_LT(latency.percentile(90), 100.0);
}

TEST(AntiDope, BatteryOnlyBridgesTransitions) {
  AntiDopeRig rig(power::BudgetLevel::kLow, {},
                  /*budget_override=*/Watts{420.0});
  rig.start_traffic(300.0, 500.0, Catalog::kCollaFilt);
  rig.cluster->run_for(3 * kMinute);
  // Unlike Shaving, the battery must not be drained by a sustained DOPE:
  // throttling converges within a few slots and the battery recharges.
  EXPECT_GT(rig.cluster->battery()->soc(), 0.5);
  EXPECT_GT(rig.cluster->battery()->total_discharged(), Joules{0.0});
}

TEST(AntiDope, RecoversFullSpeedAfterAttack) {
  AntiDopeRig rig(power::BudgetLevel::kLow, {},
                  /*budget_override=*/Watts{420.0});
  rig.start_traffic(300.0, 500.0, Catalog::kCollaFilt);
  rig.cluster->run_for(60 * kSecond);
  rig.attack->stop();
  rig.cluster->run_for(3 * kMinute);
  EXPECT_EQ(rig.scheme->suspect_level(), rig.cluster->ladder().max_level());
}

TEST(AntiDope, NoBatteryConfigurationStillEnforces) {
  // A cluster without a battery: DVFS alone must hold the budget.
  AntiDopeRig rig(power::BudgetLevel::kLow, {},
                  /*budget_override=*/Watts{420.0}, /*battery_runtime=*/0);
  ASSERT_EQ(rig.cluster->battery(), nullptr);
  rig.start_traffic(300.0, 500.0, Catalog::kCollaFilt);
  rig.cluster->run_for(60 * kSecond);
  EXPECT_LE(rig.cluster->power().last_slot_demand(),
            rig.cluster->budget() * 1.10);
  EXPECT_DOUBLE_EQ(rig.scheme->last_battery_power().value(), 0.0);
  EXPECT_DOUBLE_EQ(rig.cluster->energy_account().battery.value(), 0.0);
}

TEST(AntiDope, ValidatesConfig) {
  AntiDopeConfig bad;
  bad.suspect_pool_fraction = 0.0;
  EXPECT_THROW(AntiDopeScheme{bad}, std::invalid_argument);
  bad = {};
  bad.suspect_power_threshold = Watts{0.0};
  EXPECT_THROW(AntiDopeScheme{bad}, std::invalid_argument);
}

TEST(AntiDope, NeedsAtLeastTwoServers) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 1;
  cluster::Cluster cluster(engine, catalog, cc);
  auto scheme = std::make_unique<AntiDopeScheme>();
  EXPECT_THROW(cluster.install_scheme(std::move(scheme)),
               std::invalid_argument);
}

}  // namespace
}  // namespace dope::antidope
