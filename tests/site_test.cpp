// Tests for the multi-zone Site: budget dividers, global load-balancer
// policies, zone plumbing and metrics, stacked per-zone control stages,
// and the zone-concentrated DOPE acceptance scenario (docs/SITE.md).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "antidope/antidope.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"
#include "scenario/scenario.hpp"
#include "schemes/hierarchical.hpp"
#include "site/site.hpp"

namespace dope::site {
namespace {

using workload::Catalog;
using workload::Request;

Request request_of(workload::RequestTypeId type, Time arrival,
                   workload::SourceId source = 0) {
  Request r;
  r.type = type;
  r.arrival = arrival;
  r.source = source;
  return r;
}

ZoneSignal signal_of(double weight, double demand_w,
                     double nameplate_w = 0.0) {
  ZoneSignal s;
  s.weight = weight;
  s.demand = Watts{demand_w};
  s.nameplate = Watts{nameplate_w};
  return s;
}

// ------------------------------------------------------- divide_budget

TEST(DivideBudget, StaticFollowsWeights) {
  const auto shares = divide_budget(
      DividerKind::kStatic, Watts{400.0},
      {signal_of(3.0, 999.0), signal_of(1.0, 0.0)});
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[0].value(), 300.0);
  EXPECT_DOUBLE_EQ(shares[1].value(), 100.0);
}

TEST(DivideBudget, DemandProportionalFollowsDemand) {
  const auto shares = divide_budget(
      DividerKind::kDemandProportional, Watts{400.0},
      {signal_of(1.0, 150.0), signal_of(1.0, 50.0)});
  EXPECT_DOUBLE_EQ(shares[0].value(), 300.0);
  EXPECT_DOUBLE_EQ(shares[1].value(), 100.0);
}

TEST(DivideBudget, DemandProportionalFallsBackToWeights) {
  // Before any slot has completed no demand has been measured; the
  // divider must fall back to the static weights instead of dividing by
  // zero.
  const auto shares = divide_budget(
      DividerKind::kDemandProportional, Watts{400.0},
      {signal_of(1.0, 0.0), signal_of(3.0, 0.0)});
  EXPECT_DOUBLE_EQ(shares[0].value(), 100.0);
  EXPECT_DOUBLE_EQ(shares[1].value(), 300.0);
}

TEST(DivideBudget, HeadroomGrantsDemandThenSplitsSlackByHeadroom) {
  // Demands 50 + 150 leave 200 W of slack; headrooms are 150 and 50, so
  // the slack splits 3:1 and both zones land on 200 W.
  const auto shares = divide_budget(
      DividerKind::kHeadroomAware, Watts{400.0},
      {signal_of(1.0, 50.0, 200.0), signal_of(1.0, 150.0, 200.0)});
  EXPECT_DOUBLE_EQ(shares[0].value(), 200.0);
  EXPECT_DOUBLE_EQ(shares[1].value(), 200.0);
}

TEST(DivideBudget, HeadroomScalesDemandWhenOversubscribed) {
  // The facility cannot cover the summed demand: shares scale down
  // proportionally to demand instead of granting it.
  const auto shares = divide_budget(
      DividerKind::kHeadroomAware, Watts{200.0},
      {signal_of(1.0, 300.0, 400.0), signal_of(1.0, 100.0, 400.0)});
  EXPECT_DOUBLE_EQ(shares[0].value(), 150.0);
  EXPECT_DOUBLE_EQ(shares[1].value(), 50.0);
}

TEST(DivideBudget, FloorsStarvedZones) {
  // A zone the divider would starve still receives the minimum share,
  // keeping its power plane's budget valid.
  const auto shares = divide_budget(
      DividerKind::kStatic, Watts{100.0},
      {signal_of(1e6, 0.0), signal_of(1.0, 0.0)});
  EXPECT_DOUBLE_EQ(shares[1].value(), kMinZoneBudget.value());
}

TEST(DivideBudget, ValidatesInput) {
  EXPECT_THROW(divide_budget(DividerKind::kStatic, Watts{100.0}, {}),
               std::invalid_argument);
  EXPECT_THROW(divide_budget(DividerKind::kStatic, Watts{0.0},
                             {signal_of(1.0, 0.0)}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- Site

class SiteTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Catalog catalog_ = Catalog::standard();

  SiteConfig two_zones(std::size_t servers_per_zone = 4) {
    SiteConfig config;
    config.zones.resize(2);
    for (auto& zone : config.zones) {
      zone.cluster.num_servers = servers_per_zone;
    }
    return config;
  }

  std::unique_ptr<Site> make_site(SiteConfig config) {
    return std::make_unique<Site>(engine_, catalog_, std::move(config));
  }
};

TEST_F(SiteTest, TagsZonesAndDefaultsFacilityToZoneSum) {
  auto site = make_site(two_zones(4));
  ASSERT_EQ(site->num_zones(), 2u);
  EXPECT_EQ(site->zone(0).zone(), 0);
  EXPECT_EQ(site->zone(1).zone(), 1);
  // Two Normal-PB zones of 4 x 100 W nameplate: 400 W each.
  EXPECT_DOUBLE_EQ(site->facility_budget().value(), 800.0);
  ASSERT_EQ(site->zone_budgets().size(), 2u);
  EXPECT_DOUBLE_EQ(site->zone_budgets()[0].value(), 400.0);
  EXPECT_DOUBLE_EQ(site->zone(0).budget().value(), 400.0);
}

TEST_F(SiteTest, ExplicitFacilityBudgetIsDivided) {
  SiteConfig config = two_zones();
  config.facility_budget = Watts{500.0};
  auto site = make_site(std::move(config));
  EXPECT_DOUBLE_EQ(site->facility_budget().value(), 500.0);
  EXPECT_DOUBLE_EQ(site->zone_budgets()[0].value(), 250.0);
  EXPECT_DOUBLE_EQ(site->zone(1).budget().value(), 250.0);
}

TEST_F(SiteTest, ValidatesConfig) {
  EXPECT_THROW(make_site(SiteConfig{}), std::invalid_argument);

  SiteConfig bad_weight = two_zones();
  bad_weight.zones[1].weight = 0.0;
  EXPECT_THROW(make_site(std::move(bad_weight)), std::invalid_argument);

  SiteConfig bad_period = two_zones();
  bad_period.reapportion_period = 0;
  EXPECT_THROW(make_site(std::move(bad_period)), std::invalid_argument);
}

TEST_F(SiteTest, WeightedRoundRobinInterleavesDeterministically) {
  SiteConfig config = two_zones(1);
  config.zones[0].weight = 2.0;
  config.zones[1].weight = 1.0;
  auto site = make_site(std::move(config));

  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i) {
    Request r = request_of(Catalog::kDnsQuery, engine_.now());
    picks.push_back(site->peek_zone(r));  // peek does not advance...
    site->ingest(std::move(r));           // ...ingest does
  }
  // Smooth WRR with weights 2:1 — drift-free 0,1,0 interleaving rather
  // than bursts of the heavy zone.
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 0, 0, 1, 0}));
}

TEST_F(SiteTest, ZoneAffinityKeepsSourcesSticky) {
  SiteConfig config = two_zones(1);
  config.zones.resize(3);
  config.zones[2].cluster.num_servers = 1;
  config.policy = GlobalLbPolicy::kZoneAffinity;
  auto site = make_site(std::move(config));

  for (workload::SourceId source = 0; source < 16; ++source) {
    const Request r = request_of(Catalog::kDnsQuery, engine_.now(), source);
    const std::size_t zone = site->peek_zone(r);
    EXPECT_LT(zone, 3u);
    // Same source, same zone — every time.
    EXPECT_EQ(site->peek_zone(r), zone);
  }
}

TEST_F(SiteTest, LeastLoadedAvoidsTheBusyZone) {
  SiteConfig config = two_zones(2);
  config.policy = GlobalLbPolicy::kLeastLoaded;
  auto site = make_site(std::move(config));

  // Pile work onto zone 0 through its regional front door.
  auto pinned = site->zone_sink(0);
  for (int i = 0; i < 4; ++i) {
    pinned(request_of(Catalog::kCollaFilt, engine_.now()));
  }
  EXPECT_EQ(site->peek_zone(request_of(Catalog::kDnsQuery, engine_.now())),
            1u);
}

TEST_F(SiteTest, ZoneSinkBypassesTheGlobalBalancer) {
  auto site = make_site(two_zones(2));
  auto pinned = site->zone_sink(1);
  for (int i = 0; i < 3; ++i) {
    pinned(request_of(Catalog::kTextCont, engine_.now()));
  }
  site->run_for(2 * kSecond);
  EXPECT_EQ(site->zone(0).request_metrics().normal_counts().completed, 0u);
  EXPECT_EQ(site->zone(1).request_metrics().normal_counts().completed, 3u);
  // Zone records fold into the site-wide recorder, keyed by zone.
  EXPECT_EQ(site->request_metrics().normal_counts().completed, 3u);
  const auto& by_zone = site->request_metrics().completed_by_zone();
  ASSERT_EQ(by_zone.size(), 1u);
  EXPECT_EQ(by_zone.at(1), 3u);

  EXPECT_THROW(site->zone_sink(7), std::invalid_argument);
}

TEST_F(SiteTest, ReapportionsOnItsPeriod) {
  SiteConfig config = two_zones(1);
  config.reapportion_period = 5 * kSecond;
  auto site = make_site(std::move(config));
  EXPECT_EQ(site->reapportion_count(), 1u);  // constructor's first pass
  site->run_for(20 * kSecond);
  EXPECT_EQ(site->reapportion_count(), 5u);
}

TEST_F(SiteTest, DemandDividerShiftsBudgetTowardTheLoadedZone) {
  SiteConfig config = two_zones(2);
  config.divider = DividerKind::kDemandProportional;
  config.reapportion_period = kSecond;
  auto site = make_site(std::move(config));

  // Enough pinned work that zone 0 is still busy when the divider reads
  // the last slot's demand (an idle zone only draws its idle floor).
  auto pinned = site->zone_sink(0);
  for (int i = 0; i < 200; ++i) {
    pinned(request_of(Catalog::kCollaFilt, engine_.now()));
  }
  site->run_for(2 * kSecond);
  EXPECT_GT(site->zone_budgets()[0].value(),
            site->zone_budgets()[1].value());
  EXPECT_GT(site->zone(0).budget().value(), site->zone(1).budget().value());
}

TEST_F(SiteTest, AggregateEnergySumsZoneAccounts) {
  auto site = make_site(two_zones(2));
  auto sink = site->edge_sink();
  for (int i = 0; i < 8; ++i) {
    sink(request_of(Catalog::kTextCont, engine_.now()));
  }
  site->run_for(3 * kSecond);
  const metrics::EnergyAccount total = site->aggregate_energy();
  const Joules zone_sum = site->zone(0).energy_account().load_total() +
                          site->zone(1).energy_account().load_total();
  EXPECT_DOUBLE_EQ(total.load_total().value(), zone_sum.value());
  EXPECT_GT(site->total_energy().value(), 0.0);
}

TEST_F(SiteTest, StacksAntiDopeAndHierCappingInOneZone) {
  // Satellite of the plane refactor: two real schemes ride the same
  // zone's control pipeline — Anti-DOPE routes and throttles its suspect
  // pool, Hier-Capping enforces the rack PDUs behind it.
  SiteConfig config = two_zones(4);
  config.zones[0].cluster.budget_level = power::BudgetLevel::kLow;
  auto site = make_site(std::move(config));

  cluster::Cluster& victim = site->zone(0);
  auto& antidope = victim.control().push_stage(
      std::make_unique<antidope::AntiDopeScheme>());
  victim.control().push_stage(
      std::make_unique<schemes::HierarchicalCappingScheme>(
          power::PowerTopology::uniform(4, 2, Watts{100.0}, 0.9, 0.8)));
  ASSERT_EQ(victim.control().size(), 2u);
  EXPECT_EQ(victim.control().stage(0)->name(), "Anti-DOPE");
  EXPECT_EQ(victim.control().stage(1)->name(), "Hier-Capping");
  EXPECT_GT(static_cast<antidope::AntiDopeScheme&>(antidope)
                .suspect_pool_size(),
            0u);

  auto pinned = site->zone_sink(0);
  for (int i = 0; i < 24; ++i) {
    pinned(request_of(Catalog::kCollaFilt, engine_.now(),
                      static_cast<workload::SourceId>(i)));
  }
  site->run_for(10 * kSecond);

  // Both stages ran against live load: the PDU tree was evaluated and
  // the heavy flood terminated one way or another.
  const auto& hier = static_cast<const schemes::HierarchicalCappingScheme&>(
      *site->zone(0).control().stage(1));
  EXPECT_EQ(hier.last_load().pdus.size(), 2u);
  EXPECT_GT(hier.last_load().facility.rating.value(), 0.0);
  EXPECT_GT(site->zone(0).request_metrics().total_terminal(), 0u);
}

TEST(OneZoneSite, ReducesToItsCluster) {
  // One zone is the paper's single cluster: no zone tag, no GLB hop, no
  // divider periodic, no site.* instruments, no second metrics copy —
  // whatever the site-only settings say.
  obs::HubConfig hub_config;
  hub_config.enable_timeseries = true;
  obs::Hub hub(hub_config);
  sim::Engine engine;
  engine.set_obs(&hub);
  const Catalog catalog = Catalog::standard();
  SiteConfig config;
  config.zones.resize(1);
  config.zones[0].cluster.num_servers = 2;
  config.zones[0].weight = 3.0;
  config.facility_budget = Watts{150.0};
  config.divider = DividerKind::kHeadroomAware;
  config.policy = GlobalLbPolicy::kLeastLoaded;
  config.reapportion_period = kSecond;
  Site site(engine, catalog, std::move(config));

  EXPECT_EQ(site.zone(0).zone(), -1);
  EXPECT_EQ(&site.request_metrics(), &site.zone(0).request_metrics());
  EXPECT_DOUBLE_EQ(site.zone(0).budget().value(), 150.0);

  site.edge_sink()(request_of(Catalog::kDnsQuery, engine.now()));
  site.run_for(5 * kSecond);  // five reapportion periods
  EXPECT_EQ(site.reapportion_count(), 1u);
  ASSERT_EQ(site.zone_budgets().size(), 1u);
  EXPECT_DOUBLE_EQ(site.zone_budgets()[0].value(), 150.0);
  EXPECT_EQ(site.request_metrics().total_terminal(), 1u);

  std::ostringstream metrics;
  hub.registry().write_json(metrics);
  EXPECT_EQ(metrics.str().find("site."), std::string::npos);
  EXPECT_EQ(metrics.str().find("\"zone\""), std::string::npos);
  std::ostringstream series;
  hub.timeseries()->write_json(series);
  EXPECT_EQ(series.str().find("site."), std::string::npos);
  EXPECT_EQ(series.str().find(".zone"), std::string::npos);
  EXPECT_NE(hub.timeseries()->find(cluster::Cluster::kSignalSlotDemand),
            nullptr);
}

// ------------------------------------------- scenario-level acceptance

TEST(SiteScenario, ZoneConcentratedAttackThrottlesOnlyTheVictim) {
  // The PR's acceptance scenario: a two-zone site under a static divider
  // with the DOPE flood entering through zone 0's front door. Capping
  // must bite in the victim zone while zone 1 keeps full frequency.
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kCapping;
  config.budget = power::BudgetLevel::kLow;
  config.num_zones = 2;
  config.attack_zone = 0;
  config.normal_rps = 50.0;
  config.attack_rps = 400.0;
  config.duration = 30 * kSecond;
  config.seed = 42;
  const auto r = scenario::run_scenario(config);

  ASSERT_EQ(r.zones.size(), 2u);
  const auto& victim = r.zones[0];
  const auto& bystander = r.zones[1];
  EXPECT_GT(victim.violation_slots, 0u);
  EXPECT_EQ(bystander.violation_slots, 0u);
  // The victim was forced down the DVFS ladder; the bystander was not.
  EXPECT_LT(victim.min_level_seen, bystander.min_level_seen);
  EXPECT_LT(victim.final_mean_frequency.value(),
            bystander.final_mean_frequency.value());
  for (const auto& zone : r.zones) {
    EXPECT_GE(zone.availability, 0.0);
    EXPECT_LE(zone.availability, 1.0);
    EXPECT_GT(zone.budget.value(), 0.0);
  }
}

TEST(SiteScenario, ValidatesSiteArguments) {
  scenario::ScenarioConfig config;
  config.duration = 5 * kSecond;
  config.num_zones = 2;
  config.zone_weights = {1.0};  // size must match num_zones
  EXPECT_THROW(scenario::run_scenario(config), std::invalid_argument);

  config.zone_weights.clear();
  config.attack_zone = 5;  // out of range
  EXPECT_THROW(scenario::run_scenario(config), std::invalid_argument);
  config.attack_zone = -2;
  EXPECT_THROW(scenario::run_scenario(config), std::invalid_argument);

  // The range holds at one zone too: zone 1 does not exist.
  config.num_zones = 1;
  config.attack_zone = 1;
  EXPECT_THROW(scenario::run_scenario(config), std::invalid_argument);
}

}  // namespace
}  // namespace dope::site
