// Tests for the DPM per-node throttling solver (Algorithm 1's TL(p,q)).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "antidope/antidope.hpp"
#include "antidope/dpm.hpp"
#include "cluster/cluster.hpp"
#include "schemes/util.hpp"
#include "workload/generator.hpp"

namespace dope::antidope {
namespace {

using workload::Catalog;

class DpmTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  workload::Catalog catalog_ = Catalog::standard();
  power::DvfsLadder ladder_ = power::DvfsLadder::make();
  std::vector<std::unique_ptr<server::ServerNode>> owned_;
  std::vector<server::ServerNode*> nodes_;

  void make_nodes(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      owned_.push_back(std::make_unique<server::ServerNode>(
          engine_, static_cast<int>(i), catalog_,
          power::ServerPowerModel({}, ladder_),
          server::ServerConfig{.queue_capacity = 64, .queue_deadline = 0},
          [](const workload::RequestRecord&) {}));
      nodes_.push_back(owned_.back().get());
    }
  }

  void load(std::size_t node, workload::RequestTypeId type, int count) {
    for (int i = 0; i < count; ++i) {
      workload::Request r;
      r.type = type;
      r.size_factor = 1e6;  // pinned
      nodes_[node]->submit(std::move(r));
    }
  }
};

TEST_F(DpmTest, NoThrottlingWhenAllowanceIsGenerous) {
  make_nodes(3);
  load(0, Catalog::kCollaFilt, 4);
  const auto assignment =
      solve_throttling(nodes_, ladder_, Watts{1'000.0}, ladder_.max_level());
  for (const auto level : assignment) {
    EXPECT_EQ(level, ladder_.max_level());
  }
}

TEST_F(DpmTest, AssignmentFitsAllowanceWhenFeasible) {
  make_nodes(4);
  for (std::size_t i = 0; i < 4; ++i) load(i, Catalog::kCollaFilt, 4);
  // Saturated Colla-Filt fleet: 4x100 W; ask for 300 W.
  const auto assignment =
      solve_throttling(nodes_, ladder_, Watts{300.0}, ladder_.max_level());
  EXPECT_LE(assignment_power(nodes_, assignment), Watts{300.0});
}

TEST_F(DpmTest, FloorsWhenAllowanceIsInfeasible) {
  make_nodes(2);
  load(0, Catalog::kKMeans, 4);
  load(1, Catalog::kKMeans, 4);
  const auto assignment =
      solve_throttling(nodes_, ladder_, Watts{1.0}, ladder_.max_level());
  for (const auto level : assignment) {
    EXPECT_EQ(level, ladder_.min_level());
  }
}

TEST_F(DpmTest, ThrottlesFrequencySensitiveNodesFirst) {
  // One node runs Colla-Filt (power falls fast with f) and one runs
  // K-means (power barely moves): the greedy must spend its reduction on
  // the Colla-Filt node where each lost hertz buys the most watts.
  make_nodes(2);
  load(0, Catalog::kCollaFilt, 4);
  load(1, Catalog::kKMeans, 4);
  const Watts full = assignment_power(
      nodes_, ThrottleAssignment(2, ladder_.max_level()));
  const auto assignment = solve_throttling(nodes_, ladder_, full - Watts{20.0},
                                           ladder_.max_level());
  EXPECT_LT(assignment[0], ladder_.max_level());
  EXPECT_EQ(assignment[1], ladder_.max_level());
}

TEST_F(DpmTest, BeatsOrMatchesUniformOnPerformance) {
  // For the same allowance, the heterogeneous assignment must retain at
  // least as much total frequency as the best uniform level.
  make_nodes(4);
  load(0, Catalog::kCollaFilt, 4);
  load(1, Catalog::kCollaFilt, 2);
  load(2, Catalog::kKMeans, 4);
  load(3, Catalog::kTextCont, 1);
  const Watts allowance{250.0};
  const auto per_node = solve_throttling(nodes_, ladder_, allowance,
                                         ladder_.max_level());
  const auto uniform_level = schemes::find_uniform_level(
      nodes_, ladder_, allowance, ladder_.max_level());
  const ThrottleAssignment uniform(nodes_.size(), uniform_level);
  EXPECT_LE(assignment_power(nodes_, per_node), allowance);
  EXPECT_GE(assignment_frequency(ladder_, per_node),
            assignment_frequency(ladder_, uniform));
}

TEST_F(DpmTest, MonotoneInAllowance) {
  make_nodes(3);
  for (std::size_t i = 0; i < 3; ++i) load(i, Catalog::kCollaFilt, 4);
  GHz prev{0.0};
  for (Watts allowance :
       {Watts{150.0}, Watts{200.0}, Watts{250.0}, Watts{300.0}}) {
    const auto assignment = solve_throttling(nodes_, ladder_, allowance,
                                             ladder_.max_level());
    const GHz freq = assignment_frequency(ladder_, assignment);
    EXPECT_GE(freq, prev);
    prev = freq;
  }
}

TEST_F(DpmTest, ApplyAssignmentActuatesEveryNode) {
  make_nodes(2);
  const ThrottleAssignment assignment{3, 7};
  apply_assignment(nodes_, assignment);
  engine_.run_until(kSecond);  // actuation latency elapses
  EXPECT_EQ(nodes_[0]->level(), 3u);
  EXPECT_EQ(nodes_[1]->level(), 7u);
}

TEST_F(DpmTest, ValidatesInputs) {
  make_nodes(1);
  EXPECT_THROW(solve_throttling({}, ladder_, Watts{10.0}, 0),
               std::invalid_argument);
  EXPECT_THROW(
      assignment_power(nodes_, ThrottleAssignment(5, 0)),
      std::invalid_argument);
}

// ------------------------------------------ scheme integration

TEST(PerNodeDpm, AntiDopeEnforcesBudgetWithHeterogeneousLevels) {
  sim::Engine engine;
  const auto catalog = Catalog::standard();
  cluster::ClusterConfig cc;
  cc.num_servers = 8;
  cc.budget_override = Watts{420.0};
  cc.battery_runtime = 2 * kMinute;
  cluster::Cluster cluster(engine, catalog, cc);
  AntiDopeConfig config;
  config.per_node_throttling = true;
  cluster.install_scheme(std::make_unique<AntiDopeScheme>(config));

  workload::GeneratorConfig normal;
  normal.mixture = workload::Mixture::alios_normal();
  normal.rate_rps = 300.0;
  normal.num_sources = 128;
  workload::TrafficGenerator normal_gen(engine, catalog, normal,
                                        cluster.edge_sink());
  workload::GeneratorConfig attack;
  attack.mixture = workload::Mixture::single(Catalog::kCollaFilt);
  attack.rate_rps = 500.0;
  attack.num_sources = 64;
  attack.source_base = 1'000'000;
  attack.ground_truth_attack = true;
  workload::TrafficGenerator attack_gen(engine, catalog, attack,
                                        cluster.edge_sink());
  engine.run_until(kMinute);
  EXPECT_LE(cluster.power().last_slot_demand(), cluster.budget() * 1.10);
  // Innocent pool untouched, suspect pool throttled.
  for (std::size_t i = 2; i < cluster.num_servers(); ++i) {
    EXPECT_EQ(cluster.server(i).level(), cluster.ladder().max_level());
  }
  bool any_throttled = false;
  for (std::size_t i = 0; i < 2; ++i) {
    if (cluster.server(i).level() < cluster.ladder().max_level()) {
      any_throttled = true;
    }
  }
  EXPECT_TRUE(any_throttled);
}

}  // namespace
}  // namespace dope::antidope
