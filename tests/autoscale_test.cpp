// Tests for server sleep states (park/unpark) and the auto-scaler —
// including the DOPE amplification effect the paper warns about.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/autoscaler.hpp"
#include "cluster/cluster.hpp"
#include "workload/generator.hpp"

namespace dope {
namespace {

using workload::Catalog;

// ------------------------------------------------------------ park/unpark

class ParkTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  workload::Catalog catalog_ = Catalog::standard();
  power::DvfsLadder ladder_ = power::DvfsLadder::make();
  server::ServerConfig config_{};
  server::ServerNode node_{engine_, 0, catalog_,
                           power::ServerPowerModel({}, ladder_), config_,
                           [](const workload::RequestRecord&) {}};
};

TEST_F(ParkTest, ParkDropsPowerToSleepLevel) {
  ASSERT_DOUBLE_EQ(node_.current_power().value(), 38.0);
  node_.park();
  EXPECT_TRUE(node_.parked());
  EXPECT_FALSE(node_.accepting());
  EXPECT_DOUBLE_EQ(node_.current_power().value(), 4.0);
  EXPECT_DOUBLE_EQ(node_.estimate_power_at(ladder_.max_level()).value(),
                   4.0);
}

TEST_F(ParkTest, ParkedEnergyIntegratesSleepPower) {
  node_.park();
  engine_.run_until(10 * kSecond);
  EXPECT_NEAR(node_.energy().value(), 4.0 * 10.0, 1e-6);
}

TEST_F(ParkTest, CannotParkBusyNode) {
  workload::Request r;
  r.type = Catalog::kTextCont;
  node_.submit(std::move(r));
  EXPECT_THROW(node_.park(), std::invalid_argument);
}

TEST_F(ParkTest, UnparkTakesWakeLatency) {
  node_.park();
  engine_.run_until(kSecond);
  node_.unpark();
  EXPECT_TRUE(node_.waking());
  EXPECT_FALSE(node_.accepting());
  // Boot power during wake = idle power.
  EXPECT_DOUBLE_EQ(node_.current_power().value(), 38.0);
  engine_.run_until(engine_.now() + 3 * kSecond);  // > 2 s wake latency
  EXPECT_FALSE(node_.waking());
  EXPECT_TRUE(node_.accepting());
}

TEST_F(ParkTest, DoubleParkAndUnparkAreIdempotent) {
  node_.park();
  node_.park();
  EXPECT_TRUE(node_.parked());
  node_.unpark();
  node_.unpark();  // no-op while waking
  engine_.run_until(5 * kSecond);
  EXPECT_TRUE(node_.accepting());
  node_.unpark();  // no-op when awake
  EXPECT_TRUE(node_.accepting());
}

TEST_F(ParkTest, ParkDuringWakeCancelsTheWake) {
  node_.park();
  node_.unpark();
  ASSERT_TRUE(node_.waking());
  node_.park();
  EXPECT_TRUE(node_.parked());
  engine_.run_until(10 * kSecond);
  EXPECT_TRUE(node_.parked());  // the old wake event must not fire
  EXPECT_FALSE(node_.accepting());
}

// -------------------------------------------------------------- autoscaler

struct ScalerRig {
  sim::Engine engine;
  workload::Catalog catalog = workload::Catalog::standard();
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<cluster::AutoScaler> scaler;
  std::unique_ptr<workload::TrafficGenerator> traffic;

  explicit ScalerRig(cluster::AutoScalerConfig config = {}) {
    cluster::ClusterConfig cc;
    cc.num_servers = 8;
    cluster = std::make_unique<cluster::Cluster>(engine, catalog, cc);
    scaler = std::make_unique<cluster::AutoScaler>(*cluster, config);
  }

  void offer(double rate, workload::Mixture mixture =
                              workload::Mixture::alios_normal()) {
    workload::GeneratorConfig gen;
    gen.mixture = std::move(mixture);
    gen.rate_rps = rate;
    gen.num_sources = 64;
    gen.seed = 55;
    traffic = std::make_unique<workload::TrafficGenerator>(
        engine, catalog, gen, cluster->edge_sink());
  }
};

TEST(AutoScaler, ParksIdleFleetDownToMinimum) {
  cluster::AutoScalerConfig config;
  config.min_active = 2;
  config.step = 2;
  ScalerRig rig(config);
  rig.offer(5.0);  // nearly idle
  rig.cluster->run_for(3 * kMinute);
  EXPECT_EQ(rig.scaler->serving_count(), 2u);
  EXPECT_GE(rig.scaler->parked_count(), 5u);
  // Parked fleet slashes idle power: 2 serving x ~38 W + 6 parked x 4 W.
  EXPECT_LT(rig.cluster->total_power(), Watts{2 * 45.0 + 6 * 5.0});
}

TEST(AutoScaler, WakesFleetUnderLoadGrowth) {
  cluster::AutoScalerConfig config;
  config.min_active = 1;
  config.step = 2;
  ScalerRig rig(config);
  rig.offer(5.0);
  rig.cluster->run_for(3 * kMinute);
  ASSERT_LE(rig.scaler->serving_count(), 2u);
  rig.traffic->set_rate(1'200.0);  // surge
  rig.cluster->run_for(3 * kMinute);
  EXPECT_GE(rig.scaler->serving_count(), 6u);
  EXPECT_GT(rig.scaler->scale_ups(), 0u);
}

TEST(AutoScaler, DrainsGracefullyWithoutDroppingWork) {
  cluster::AutoScalerConfig config;
  config.min_active = 1;
  ScalerRig rig(config);
  rig.offer(400.0);
  rig.cluster->run_for(kMinute);
  rig.traffic->set_rate(2.0);  // load collapses; fleet must shrink
  rig.cluster->run_for(5 * kMinute);
  EXPECT_GT(rig.scaler->scale_downs(), 0u);
  // Graceful drain: nothing was rejected or lost to the scale-down.
  const auto& counts = rig.cluster->request_metrics().normal_counts();
  EXPECT_EQ(counts.rejected_queue_full, 0u);
}

TEST(AutoScaler, DopeAttackWakesTheWholeFleetAndRaisesPower) {
  // The paper's amplification: to the auto-scaler, attack load is just
  // load — it obligingly wakes every server for the adversary.
  cluster::AutoScalerConfig config;
  config.min_active = 2;
  config.step = 2;
  ScalerRig rig(config);
  rig.offer(20.0);
  rig.cluster->run_for(3 * kMinute);
  const Watts calm_power = rig.cluster->total_power();
  ASSERT_LE(rig.scaler->serving_count(), 3u);

  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kKMeans);
  attack.rate_rps = 400.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  attack.start = rig.engine.now();  // begins after the calm phase
  workload::TrafficGenerator attack_gen(rig.engine, rig.catalog, attack,
                                        rig.cluster->edge_sink());
  rig.cluster->run_for(5 * kMinute);
  EXPECT_EQ(rig.scaler->serving_count(), 8u);
  EXPECT_GT(rig.cluster->total_power(), 3.0 * calm_power);
}

TEST(AutoScaler, ValidatesConfig) {
  ScalerRig rig;  // valid default first
  cluster::AutoScalerConfig bad;
  bad.min_active = 0;
  EXPECT_THROW(cluster::AutoScaler(*rig.cluster, bad),
               std::invalid_argument);
  bad = {};
  bad.step = 0;
  EXPECT_THROW(cluster::AutoScaler(*rig.cluster, bad),
               std::invalid_argument);
}

TEST(AutoScaler, UtilizationReflectsBusyCores) {
  ScalerRig rig;
  EXPECT_DOUBLE_EQ(rig.scaler->utilization(), 0.0);
  for (int i = 0; i < 16; ++i) {
    workload::Request r;
    r.type = Catalog::kKMeans;
    r.size_factor = 100.0;
    rig.cluster->server(static_cast<std::size_t>(i % 8))
        .submit(std::move(r));
  }
  EXPECT_NEAR(rig.scaler->utilization(), 0.5, 1e-9);  // 16 of 32 cores
}

}  // namespace
}  // namespace dope
