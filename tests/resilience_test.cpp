// Failure-injection tests: partial node failures, mid-run topology
// changes, and defense behaviour around them. The cluster must degrade
// gracefully, never corrupt its accounting, and recover.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster.hpp"
#include "schemes/baselines.hpp"
#include "workload/generator.hpp"

namespace dope {
namespace {

using workload::Catalog;

struct Rig {
  sim::Engine engine;
  workload::Catalog catalog = Catalog::standard();
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<workload::TrafficGenerator> traffic;

  explicit Rig(std::size_t servers = 4) {
    cluster::ClusterConfig cc;
    cc.num_servers = servers;
    cluster = std::make_unique<cluster::Cluster>(engine, catalog, cc);
  }

  void offer(double rate) {
    workload::GeneratorConfig gen;
    gen.mixture = workload::Mixture::single(Catalog::kTextCont);
    gen.rate_rps = rate;
    gen.num_sources = 32;
    gen.seed = 13;
    traffic = std::make_unique<workload::TrafficGenerator>(
        engine, catalog, gen, cluster->edge_sink());
  }
};

TEST(Resilience, SingleNodeFailureIsRoutedAround) {
  Rig rig;
  rig.offer(200.0);
  rig.cluster->run_for(10 * kSecond);
  rig.cluster->server(0).power_off();
  rig.cluster->run_for(30 * kSecond);
  // The dead node takes no traffic; the survivors carry everything.
  EXPECT_EQ(rig.cluster->server(0).load(), 0u);
  const auto& counts = rig.cluster->request_metrics().normal_counts();
  // After the failure instant, nothing is rejected: 3 nodes can carry
  // 200 rps of Text-Cont easily.
  EXPECT_EQ(counts.rejected_queue_full, 0u);
  // Only the in-flight requests at the failure instant were lost.
  EXPECT_LE(counts.failed_outage, 8u);
  EXPECT_GT(counts.completed, 5'000u);
}

TEST(Resilience, PowerDropsByTheDeadNodeShare) {
  Rig rig;
  rig.offer(0.0);
  rig.cluster->run_for(kSecond);
  const Watts before = rig.cluster->total_power();
  rig.cluster->server(2).power_off();
  EXPECT_NEAR(rig.cluster->total_power().value(),
              (before - Watts{38.0}).value(), 1e-9);
}

TEST(Resilience, NodeRejoinsAfterRepair) {
  Rig rig;
  rig.offer(300.0);
  rig.cluster->run_for(5 * kSecond);
  rig.cluster->server(0).power_off();
  rig.cluster->run_for(10 * kSecond);
  rig.cluster->server(0).power_on(2 * kSecond);
  rig.cluster->run_for(30 * kSecond);
  EXPECT_TRUE(rig.cluster->server(0).accepting());
  // The repaired node picks work back up (least-loaded balancing).
  EXPECT_GT(rig.cluster->server(0).counters().completed, 0u);
}

TEST(Resilience, AllNodesDownMeansEdgeRejections) {
  Rig rig;
  for (std::size_t i = 0; i < rig.cluster->num_servers(); ++i) {
    rig.cluster->server(i).power_off();
  }
  rig.offer(100.0);
  rig.cluster->run_for(10 * kSecond);
  const auto& counts = rig.cluster->request_metrics().normal_counts();
  EXPECT_EQ(counts.completed, 0u);
  EXPECT_GT(counts.rejected_queue_full, 500u);  // edge has nowhere to go
}

TEST(Resilience, SchemeSurvivesNodeFailureMidEnforcement) {
  // Capping must keep working when the fleet shrinks under its feet.
  Rig rig(8);
  cluster::ClusterConfig cc;
  (void)cc;
  rig.cluster->install_scheme(std::make_unique<schemes::CappingScheme>());
  workload::GeneratorConfig heavy;
  heavy.mixture = workload::Mixture::single(Catalog::kKMeans);
  heavy.rate_rps = 400.0;
  heavy.num_sources = 64;
  workload::TrafficGenerator gen(rig.engine, rig.catalog, heavy,
                                 rig.cluster->edge_sink());
  rig.cluster->run_for(20 * kSecond);
  rig.cluster->server(3).power_off();
  rig.cluster->server(5).power_off();
  rig.cluster->run_for(60 * kSecond);
  // No crash, accounting still consistent, survivors still serving.
  // (The flood is not ground-truth-tagged here, so it counts as normal.)
  const auto& counts = rig.cluster->request_metrics().normal_counts();
  EXPECT_GT(counts.completed, 1'000u);
  EXPECT_NEAR(rig.cluster->energy_account().load_total().value(),
              rig.cluster->data().total_energy().value(), 1.0);
}

TEST(Resilience, EnergyAccountingSurvivesOutagesAndRecovery) {
  Rig rig;
  rig.offer(100.0);
  rig.cluster->run_for(10 * kSecond);
  rig.cluster->server(0).power_off();
  rig.cluster->run_for(10 * kSecond);
  rig.cluster->server(0).power_on(kSecond);
  rig.cluster->run_for(10 * kSecond);
  EXPECT_NEAR(rig.cluster->energy_account().load_total().value(),
              rig.cluster->data().total_energy().value(), 1.0);
}

}  // namespace
}  // namespace dope
