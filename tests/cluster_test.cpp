// Unit tests for cluster assembly: request path, management slots, energy
// attribution, and the scheme hook points.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/stage.hpp"
#include "workload/generator.hpp"

namespace dope::cluster {
namespace {

using workload::Catalog;
using workload::Request;
using workload::RequestOutcome;

Request request_of(workload::RequestTypeId type, Time arrival,
                   workload::SourceId source = 0) {
  Request r;
  r.type = type;
  r.arrival = arrival;
  r.source = source;
  return r;
}

class ClusterTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Catalog catalog_ = Catalog::standard();

  std::unique_ptr<Cluster> make_cluster(ClusterConfig config = {}) {
    return std::make_unique<Cluster>(engine_, catalog_, config);
  }
};

TEST_F(ClusterTest, BuildsRequestedTopology) {
  ClusterConfig config;
  config.num_servers = 4;
  auto cluster = make_cluster(config);
  EXPECT_EQ(cluster->num_servers(), 4u);
  EXPECT_DOUBLE_EQ(cluster->power().total_nameplate().value(), 400.0);
  EXPECT_DOUBLE_EQ(cluster->budget().value(), 400.0);  // Normal-PB
  EXPECT_EQ(cluster->battery(), nullptr);
  EXPECT_EQ(cluster->data().firewall(), nullptr);
}

TEST_F(ClusterTest, BudgetLevelsScaleSupply) {
  ClusterConfig config;
  config.num_servers = 10;
  config.budget_level = power::BudgetLevel::kLow;
  auto cluster = make_cluster(config);
  EXPECT_DOUBLE_EQ(cluster->budget().value(), 800.0);
}

TEST_F(ClusterTest, BatteryCreatedWithRequestedRuntime) {
  ClusterConfig config;
  config.num_servers = 4;
  config.battery_runtime = 2 * kMinute;
  auto cluster = make_cluster(config);
  ASSERT_NE(cluster->battery(), nullptr);
  EXPECT_DOUBLE_EQ(cluster->battery()->spec().capacity.value(),
                   400.0 * 120.0);
}

TEST_F(ClusterTest, IngestDispatchesAndCompletes) {
  auto cluster = make_cluster();
  cluster->ingest(request_of(Catalog::kTextCont, engine_.now()));
  cluster->run_for(kSecond);
  EXPECT_EQ(cluster->request_metrics().normal_counts().completed, 1u);
}

TEST_F(ClusterTest, EdgeSinkFeedsIngest) {
  auto cluster = make_cluster();
  auto sink = cluster->edge_sink();
  sink(request_of(Catalog::kTextCont, engine_.now()));
  cluster->run_for(kSecond);
  EXPECT_EQ(cluster->request_metrics().normal_counts().completed, 1u);
}

TEST_F(ClusterTest, DefaultLeastLoadedSpreadsRequests) {
  ClusterConfig config;
  config.num_servers = 4;
  auto cluster = make_cluster(config);
  for (int i = 0; i < 4; ++i) {
    cluster->ingest(request_of(Catalog::kCollaFilt, engine_.now()));
  }
  for (auto* s : cluster->servers()) {
    EXPECT_EQ(s->active_count(), 1u);
  }
}

TEST_F(ClusterTest, FirewallBlocksBannedSources) {
  ClusterConfig config;
  config.num_servers = 2;
  net::FirewallConfig firewall;
  firewall.threshold_rps = 10.0;
  firewall.check_interval = kSecond;
  config.firewall = firewall;
  auto cluster = make_cluster(config);

  workload::GeneratorConfig gen_config;
  gen_config.mixture = workload::Mixture::single(Catalog::kTextCont);
  gen_config.rate_rps = 200.0;  // one source, way over threshold
  workload::TrafficGenerator gen(engine_, catalog_, gen_config,
                                 cluster->edge_sink());
  cluster->run_for(10 * kSecond);
  EXPECT_GT(
      cluster->request_metrics().normal_counts().blocked_by_firewall, 0u);
}

TEST_F(ClusterTest, TotalPowerSumsServers) {
  ClusterConfig config;
  config.num_servers = 3;
  auto cluster = make_cluster(config);
  EXPECT_DOUBLE_EQ(cluster->total_power().value(), 3 * 38.0);
  cluster->ingest(request_of(Catalog::kKMeans, engine_.now()));
  EXPECT_DOUBLE_EQ(cluster->total_power().value(), 3 * 38.0 + 21.0);
}

TEST_F(ClusterTest, LastSlotDemandTracksLoad) {
  auto cluster = make_cluster();
  cluster->run_for(2 * kSecond);
  EXPECT_NEAR(cluster->power().last_slot_demand().value(), 8 * 38.0, 1.0);
}

TEST_F(ClusterTest, EnergyAccountAllUtilityWithoutBattery) {
  auto cluster = make_cluster();
  cluster->run_for(10 * kSecond);
  const auto& account = cluster->energy_account();
  EXPECT_NEAR(account.utility.value(), 8 * 38.0 * 10.0, 1.0);
  EXPECT_DOUBLE_EQ(account.battery.value(), 0.0);
  EXPECT_NEAR(account.load_total().value(),
              cluster->data().total_energy().value(), 1.0);
}

TEST_F(ClusterTest, SlotStatsCountViolations) {
  ClusterConfig config;
  config.num_servers = 2;
  config.budget_level = power::BudgetLevel::kLow;  // 160 W budget
  auto cluster = make_cluster(config);
  // Saturate both servers with heavy requests; no scheme installed, so
  // demand (~200 W) stays above budget and every slot violates.
  workload::GeneratorConfig gen_config;
  gen_config.mixture = workload::Mixture::single(Catalog::kKMeans);
  gen_config.rate_rps = 500.0;
  workload::TrafficGenerator gen(engine_, catalog_, gen_config,
                                 cluster->edge_sink());
  cluster->run_for(10 * kSecond);
  EXPECT_GT(cluster->slot_stats().violation_slots, 5u);
  EXPECT_GT(cluster->slot_stats().worst_overshoot, Watts{10.0});
}

// A scheme that drops every request at admission.
class DropAllScheme final : public ControlStage {
 public:
  std::string name() const override { return "drop-all"; }
  bool admit(const Request&) override { return false; }
  void on_slot(Time, Duration) override {}
};

TEST_F(ClusterTest, SchemeAdmitGate) {
  auto cluster = make_cluster();
  cluster->install_scheme(std::make_unique<DropAllScheme>());
  cluster->ingest(request_of(Catalog::kTextCont, engine_.now()));
  cluster->run_for(kSecond);
  EXPECT_EQ(cluster->request_metrics().normal_counts().dropped_by_limit, 1u);
  EXPECT_EQ(cluster->request_metrics().normal_counts().completed, 0u);
}

// A scheme that routes everything to server 0.
class PinScheme final : public ControlStage {
 public:
  std::string name() const override { return "pin"; }
  void attach(Cluster& cluster) override {
    ControlStage::attach(cluster);
    target_ = cluster.servers().front();
  }
  net::Backend* route(const Request&) override { return target_; }
  void on_slot(Time, Duration) override { ++slots_; }

  int slots_ = 0;

 private:
  net::Backend* target_ = nullptr;
};

TEST_F(ClusterTest, SchemeRouteOverridesBalancer) {
  ClusterConfig config;
  config.num_servers = 4;
  auto cluster = make_cluster(config);
  auto scheme = std::make_unique<PinScheme>();
  cluster->install_scheme(std::move(scheme));
  for (int i = 0; i < 3; ++i) {
    cluster->ingest(request_of(Catalog::kCollaFilt, engine_.now()));
  }
  EXPECT_EQ(cluster->server(0).active_count(), 3u);
  EXPECT_EQ(cluster->server(1).active_count(), 0u);
}

TEST_F(ClusterTest, OnSlotInvokedEverySlot) {
  ClusterConfig config;
  config.slot = kSecond;
  auto cluster = make_cluster(config);
  auto* scheme = new PinScheme();
  cluster->install_scheme(std::unique_ptr<ControlStage>(scheme));
  cluster->run_for(10 * kSecond);
  EXPECT_EQ(scheme->slots_, 10);
  EXPECT_EQ(cluster->slot_stats().slots, 10u);
}

TEST_F(ClusterTest, RecordListenersObserveTerminalRecords) {
  auto cluster = make_cluster();
  int seen = 0;
  cluster->add_record_listener(
      [&seen](const workload::RequestRecord&) { ++seen; });
  cluster->ingest(request_of(Catalog::kTextCont, engine_.now()));
  cluster->run_for(kSecond);
  EXPECT_EQ(seen, 1);
}

TEST_F(ClusterTest, ValidatesConfig) {
  ClusterConfig config;
  config.num_servers = 0;
  EXPECT_THROW(make_cluster(config), std::invalid_argument);
  config = {};
  config.slot = 0;
  EXPECT_THROW(make_cluster(config), std::invalid_argument);
}

TEST_F(ClusterTest, SingleServerClusterIsValid) {
  // num_servers = 1 is the edge the validation gate must let through:
  // every plane (fleet, budget) works with a fleet of one.
  ClusterConfig config;
  config.num_servers = 1;
  auto cluster = make_cluster(config);
  EXPECT_EQ(cluster->num_servers(), 1u);
  cluster->ingest(request_of(Catalog::kTextCont, engine_.now()));
  cluster->run_for(kSecond);
  EXPECT_EQ(cluster->request_metrics().normal_counts().completed, 1u);
}

// Counts each plug-point call and flags its own destruction, so the
// cluster's one-stage ownership is directly observable.
class CountingStage final : public ControlStage {
 public:
  struct Calls {
    int admit = 0;
    int route = 0;
    int slot = 0;
    bool destroyed = false;
  };
  explicit CountingStage(Calls& calls) : calls_(calls) {}
  ~CountingStage() override { calls_.destroyed = true; }
  std::string name() const override { return "counting"; }
  bool admit(const Request&) override {
    ++calls_.admit;
    return true;
  }
  net::Backend* route(const Request&) override {
    ++calls_.route;
    return nullptr;
  }
  void on_slot(Time, Duration) override { ++calls_.slot; }

 private:
  Calls& calls_;
};

TEST_F(ClusterTest, SecondInstallDestroysTheFirstStage) {
  auto cluster = make_cluster();
  CountingStage::Calls first;
  CountingStage::Calls second;
  cluster->install_scheme(std::make_unique<CountingStage>(first));
  cluster->ingest(request_of(Catalog::kTextCont, engine_.now()));
  cluster->run_for(2 * kSecond);
  EXPECT_EQ(first.admit, 1);
  EXPECT_EQ(first.route, 1);
  EXPECT_EQ(first.slot, 2);
  EXPECT_FALSE(first.destroyed);

  auto next = std::make_unique<CountingStage>(second);
  ControlStage* const installed = next.get();
  cluster->install_scheme(std::move(next));
  EXPECT_TRUE(first.destroyed);
  EXPECT_EQ(cluster->stage(), installed);

  cluster->ingest(request_of(Catalog::kTextCont, engine_.now()));
  cluster->run_for(3 * kSecond);
  EXPECT_EQ(second.admit, 1);
  EXPECT_EQ(second.route, 1);
  EXPECT_EQ(second.slot, 3);
  EXPECT_FALSE(second.destroyed);
  // The first stage saw nothing after it was replaced.
  EXPECT_EQ(first.admit, 1);
  EXPECT_EQ(first.route, 1);
  EXPECT_EQ(first.slot, 2);

  cluster.reset();  // the cluster owns its stage to the end
  EXPECT_TRUE(second.destroyed);
}

TEST_F(ClusterTest, NoStageAdmitsAllRoutesByDefaultAndNeverThrottles) {
  // The paper's unmanaged "None" scheme: a low budget under a heavy
  // flood, with nothing to enforce it.
  ClusterConfig config;
  config.num_servers = 4;
  config.budget_level = power::BudgetLevel::kLow;
  auto cluster = make_cluster(config);
  CountingStage::Calls calls;
  cluster->install_scheme(std::make_unique<CountingStage>(calls));
  cluster->install_scheme(nullptr);
  EXPECT_TRUE(calls.destroyed);
  EXPECT_EQ(cluster->stage(), nullptr);

  workload::GeneratorConfig flood;
  flood.mixture = workload::Mixture::single(Catalog::kKMeans);
  flood.rate_rps = 600.0;
  workload::TrafficGenerator gen(engine_, catalog_, flood,
                                 cluster->edge_sink());
  cluster->run_for(20 * kSecond);

  const auto& counts = cluster->request_metrics().normal_counts();
  EXPECT_GT(counts.terminal(), 0u);
  EXPECT_EQ(counts.dropped_by_limit, 0u);  // nothing refused admission
  for (std::size_t i = 0; i < cluster->num_servers(); ++i) {
    // The default least-loaded balancer spread the flood over the fleet.
    EXPECT_GT(cluster->server(i).counters().completed, 0u) << "server " << i;
    EXPECT_EQ(cluster->server(i).level(), cluster->ladder().max_level());
  }
  // Demand stays above the budget every slot, and nothing throttles it.
  EXPECT_GT(cluster->slot_stats().violation_slots, 15u);
}

TEST_F(ClusterTest, ServerIndexBoundsChecked) {
  auto cluster = make_cluster();
  EXPECT_THROW(cluster->server(99), std::invalid_argument);
}

}  // namespace
}  // namespace dope::cluster
