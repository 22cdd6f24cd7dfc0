// Unit tests for cluster assembly: request path, management slots, energy
// attribution, and the scheme hook points.
#include <gtest/gtest.h>

#include <memory>

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
  // every plane (fleet, budget, pipeline) works with a fleet of one.
  ClusterConfig config;
  config.num_servers = 1;
  auto cluster = make_cluster(config);
  EXPECT_EQ(cluster->num_servers(), 1u);
  cluster->ingest(request_of(Catalog::kTextCont, engine_.now()));
  cluster->run_for(kSecond);
  EXPECT_EQ(cluster->request_metrics().normal_counts().completed, 1u);
}

// Records its tag into a shared journal at each plug point, so the
// pipeline's invocation order is directly observable.
class JournalStage final : public ControlStage {
 public:
  JournalStage(char tag, std::vector<char>& journal, bool admits = true)
      : tag_(tag), journal_(journal), admits_(admits) {}
  std::string name() const override { return std::string(1, tag_); }
  bool admit(const Request&) override {
    journal_.push_back(tag_);
    return admits_;
  }
  void on_slot(Time, Duration) override { journal_.push_back(tag_); }

 private:
  char tag_;
  std::vector<char>& journal_;
  bool admits_;
};

TEST_F(ClusterTest, ControlStageOrderingIsInstallationOrder) {
  // Two stacks differing only in order are two *different* policies: the
  // admit chain short-circuits at the first refusal, so whether the
  // journal sees 'c' depends on where the dropper sits.
  auto run_stack = [this](bool counter_first) {
    sim::Engine engine;
    Cluster cluster(engine, catalog_, {});
    std::vector<char> journal;
    auto counter = std::make_unique<JournalStage>('c', journal);
    auto dropper =
        std::make_unique<JournalStage>('d', journal, /*admits=*/false);
    if (counter_first) {
      cluster.control().push_stage(std::move(counter));
      cluster.control().push_stage(std::move(dropper));
    } else {
      cluster.control().push_stage(std::move(dropper));
      cluster.control().push_stage(std::move(counter));
    }
    cluster.ingest(request_of(Catalog::kTextCont, engine.now()));
    cluster.run_for(2 * kSecond);
    return journal;
  };

  const auto counter_first = run_stack(true);
  const auto dropper_first = run_stack(false);
  // counter admits, dropper refuses, then two slots in install order.
  EXPECT_EQ(counter_first, (std::vector<char>{'c', 'd', 'c', 'd', 'c', 'd'}));
  // dropper refuses immediately; the counter never sees the request.
  EXPECT_EQ(dropper_first, (std::vector<char>{'d', 'd', 'c', 'd', 'c'}));
  // Each order is individually deterministic, run to run.
  EXPECT_EQ(run_stack(true), counter_first);
  EXPECT_EQ(run_stack(false), dropper_first);
}

TEST_F(ClusterTest, ReleasedStageReattachesWithoutDangling) {
  // A stage handed from one cluster to another must survive the first
  // cluster's destruction: detach() drops every cached Cluster* pointer.
  auto first = std::make_unique<Cluster>(engine_, catalog_, ClusterConfig{});
  auto* pin = static_cast<PinScheme*>(
      &first->control().push_stage(std::make_unique<PinScheme>()));
  first->run_for(2 * kSecond);
  EXPECT_EQ(pin->slots_, 2);

  std::unique_ptr<ControlStage> released = first->control().release_stage(0);
  EXPECT_FALSE(released->attached());
  EXPECT_TRUE(first->control().empty());
  first.reset();  // the old cluster is gone; the stage must not care

  sim::Engine second_engine;
  Cluster second(second_engine, catalog_, ClusterConfig{});
  second.control().push_stage(std::move(released));
  second.ingest(request_of(Catalog::kTextCont, second_engine.now()));
  second.run_for(2 * kSecond);
  EXPECT_EQ(pin->slots_, 4);
  EXPECT_EQ(second.server(0).active_count(), 0u);  // completed, not stuck
  EXPECT_EQ(second.request_metrics().normal_counts().completed, 1u);
}

TEST_F(ClusterTest, AttachedStageRefusesASecondCluster) {
  auto cluster = make_cluster();
  ControlStage& stage =
      cluster->control().push_stage(std::make_unique<PinScheme>());
  sim::Engine other_engine;
  Cluster other(other_engine, catalog_, ClusterConfig{});
  EXPECT_THROW(stage.attach(other), std::invalid_argument);
  stage.detach();
  EXPECT_NO_THROW(stage.attach(other));
  // Put it back so the owning plane's teardown detach stays coherent.
  stage.detach();
  EXPECT_NO_THROW(stage.attach(*cluster));
}

TEST_F(ClusterTest, ServerIndexBoundsChecked) {
  auto cluster = make_cluster();
  EXPECT_THROW(cluster->server(99), std::invalid_argument);
}

}  // namespace
}  // namespace dope::cluster
