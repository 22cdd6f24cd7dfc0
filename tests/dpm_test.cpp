// Tests for the DPM throttling solver (Algorithm 1's TL(p,q)) and the
// pooled slot loop around it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

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

  /// Every one of `n` nodes at the ladder top.
  ThrottleAssignment top(std::size_t n) const {
    return ThrottleAssignment(n, ladder_.max_level());
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
      solve_throttling(nodes_, ladder_, Watts{1'000.0}, top(3));
  for (const auto level : assignment) {
    EXPECT_EQ(level, ladder_.max_level());
  }
}

TEST_F(DpmTest, AssignmentFitsAllowanceWhenFeasible) {
  make_nodes(4);
  for (std::size_t i = 0; i < 4; ++i) load(i, Catalog::kCollaFilt, 4);
  // Saturated Colla-Filt fleet: 4x100 W; ask for 300 W.
  const auto assignment =
      solve_throttling(nodes_, ladder_, Watts{300.0}, top(4));
  EXPECT_LE(assignment_power(nodes_, assignment), Watts{300.0});
}

TEST_F(DpmTest, FloorsWhenAllowanceIsInfeasible) {
  make_nodes(2);
  load(0, Catalog::kKMeans, 4);
  load(1, Catalog::kKMeans, 4);
  const auto assignment =
      solve_throttling(nodes_, ladder_, Watts{1.0}, top(2));
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
  const Watts full = assignment_power(nodes_, top(2));
  const auto assignment =
      solve_throttling(nodes_, ladder_, full - Watts{20.0}, top(2));
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
  const auto per_node = solve_throttling(nodes_, ladder_, allowance, top(4));
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
    const auto assignment =
        solve_throttling(nodes_, ladder_, allowance, top(3));
    const GHz freq = assignment_frequency(ladder_, assignment);
    EXPECT_GE(freq, prev);
    prev = freq;
  }
}

TEST_F(DpmTest, StartsFromTheGivenLevelsAndNeverRaises) {
  make_nodes(2);
  load(0, Catalog::kCollaFilt, 4);
  load(1, Catalog::kCollaFilt, 4);
  // A generous allowance keeps the start as is, even below the top.
  const ThrottleAssignment start{4, 9};
  EXPECT_EQ(solve_throttling(nodes_, ladder_, Watts{1'000.0}, start), start);
  std::uint64_t iterations = 0;
  const auto lowered = solve_throttling(
      nodes_, ladder_, assignment_power(nodes_, start) - Watts{10.0}, start,
      &iterations);
  EXPECT_GT(iterations, 0u);
  for (std::size_t i = 0; i < start.size(); ++i) {
    EXPECT_LE(lowered[i], start[i]);
  }
}

TEST_F(DpmTest, ValidatesInputs) {
  make_nodes(1);
  EXPECT_THROW(solve_throttling({}, ladder_, Watts{10.0}, {}),
               std::invalid_argument);
  EXPECT_THROW(solve_throttling(nodes_, ladder_, Watts{10.0}, top(2)),
               std::invalid_argument);
  EXPECT_THROW(
      assignment_power(nodes_, ThrottleAssignment(5, 0)),
      std::invalid_argument);
  EXPECT_THROW(PooledDpm({nodes_, {}}, ladder_), std::invalid_argument);
}

// ------------------------------------------ exhaustive reference

TEST_F(DpmTest, GreedyIsFeasibleWheneverTheOptimumIs) {
  // Every assignment of up to 4 nodes over the 13-level ladder (13^4 =
  // 28,561) bounds the greedy: it must fit whenever some assignment
  // fits. Its Σf gap to the best fitting assignment is pinned at the
  // measured worst, 2.3 GHz: a node saturated at the nameplate clamp
  // saves ~0 W on its first step-downs, so the one-step ratio throttles
  // a lightly loaded neighbour (an idle node, ~7 W from top to floor)
  // all the way down before the clamped node moves at all.
  const std::vector<std::vector<std::pair<workload::RequestTypeId, int>>>
      loads = {{{Catalog::kCollaFilt, 4}},
               {{Catalog::kKMeans, 4}},
               {{Catalog::kWordCount, 3}},
               {{Catalog::kTextCont, 2}, {Catalog::kCollaFilt, 1}},
               {{Catalog::kKMeans, 1}, {Catalog::kWordCount, 1}},
               {}};
  const std::size_t levels = ladder_.levels();
  ASSERT_EQ(levels, 13u);
  GHz worst_gap{0.0};
  std::size_t feasible_cases = 0;
  for (std::size_t n = 1; n <= 4; ++n) {
    for (std::size_t first = 0; first < loads.size(); ++first) {
      // Fresh nodes per load set: node i carries loads[(first + i) % 6].
      owned_.clear();
      nodes_.clear();
      make_nodes(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (const auto& [type, count] : loads[(first + i) % loads.size()]) {
          load(i, type, count);
        }
      }
      std::vector<std::vector<Watts>> table(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < levels; ++l) {
          table[i].push_back(nodes_[i]->estimate_power_at(l));
        }
      }
      const Watts floor = assignment_power(nodes_, ThrottleAssignment(n, 0));
      const Watts full = assignment_power(nodes_, top(n));
      for (int step = 0; step <= 10; ++step) {
        const Watts allowance =
            floor * 0.95 + (full - floor * 0.95) * (step / 10.0);
        // Exhaustive optimum: the most total frequency that fits.
        GHz best{-1.0};
        ThrottleAssignment a(n, 0);
        for (std::size_t code = 0;; ++code) {
          std::size_t rest = code;
          for (std::size_t i = 0; i < n; ++i) {
            a[i] = rest % levels;
            rest /= levels;
          }
          if (rest != 0) break;
          Watts p{0.0};
          for (std::size_t i = 0; i < n; ++i) p += table[i][a[i]];
          if (p <= allowance) {
            best = std::max(best, assignment_frequency(ladder_, a));
          }
        }
        const auto greedy =
            solve_throttling(nodes_, ladder_, allowance, top(n));
        const bool fits = assignment_power(nodes_, greedy) <= allowance;
        if (best < GHz{0.0}) {
          EXPECT_FALSE(fits);
          continue;
        }
        ++feasible_cases;
        ASSERT_TRUE(fits) << "n=" << n << " allowance=" << allowance.value();
        worst_gap =
            std::max(worst_gap, best - assignment_frequency(ladder_, greedy));
      }
    }
  }
  EXPECT_GT(feasible_cases, 100u);
  RecordProperty("worst_gap_ghz", std::to_string(worst_gap.value()));
  EXPECT_LE(worst_gap, GHz{2.3 + 1e-9});
}

// ------------------------------------------ the pooled slot loop

TEST_F(DpmTest, DeficitThrottlesFirstPoolFirstAndActuatesOnlyChanges) {
  make_nodes(4);
  for (std::size_t i = 0; i < 4; ++i) load(i, Catalog::kCollaFilt, 4);
  PooledDpm dpm({{nodes_[0], nodes_[1]}, {nodes_[2], nodes_[3]}}, ladder_);
  const Watts full = assignment_power(nodes_, top(4));
  const auto slot =
      dpm.on_slot(0, kSecond, full - Watts{20.0}, full, nullptr);
  EXPECT_GT(slot.tl_iterations, 0u);
  EXPECT_LE(slot.projected, full - Watts{20.0});
  EXPECT_LT(dpm.level(0), ladder_.max_level());
  EXPECT_EQ(dpm.level(1), ladder_.max_level());  // protected pool untouched
  engine_.run_until(kSecond);                    // actuation latency
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(nodes_[i]->level(), dpm.levels(0)[i]);
  }
  EXPECT_EQ(nodes_[2]->level(), ladder_.max_level());
  EXPECT_EQ(nodes_[3]->level(), ladder_.max_level());
}

TEST_F(DpmTest, DeficitReachesTheProtectedPoolOnlyAsLastResort) {
  make_nodes(4);
  for (std::size_t i = 0; i < 4; ++i) load(i, Catalog::kCollaFilt, 4);
  PooledDpm dpm({{nodes_[0], nodes_[1]}, {nodes_[2], nodes_[3]}}, ladder_);
  const Watts full = assignment_power(nodes_, top(4));
  const Watts first_floor =
      assignment_power({nodes_[0], nodes_[1]}, ThrottleAssignment(2, 0));
  // Below what the first pool reaches at its floor next to a full-speed
  // protected pool: Step 2 must take the rest from the protected pool.
  const Watts budget =
      first_floor + assignment_power({nodes_[2], nodes_[3]}, top(2)) -
      Watts{10.0};
  const auto slot = dpm.on_slot(0, kSecond, budget, full, nullptr);
  EXPECT_EQ(dpm.level(0), ladder_.min_level());
  EXPECT_LT(dpm.level(1), ladder_.max_level());
  EXPECT_LE(slot.projected, budget);
}

TEST_F(DpmTest, HeadroomLiftsOnlyThePoolMinimumAndNeverLowers) {
  make_nodes(3);
  load(0, Catalog::kCollaFilt, 4);
  load(1, Catalog::kKMeans, 4);
  load(2, Catalog::kTextCont, 1);
  PooledDpm dpm({nodes_}, ladder_);
  // A deficit leaves heterogeneous levels (Colla-Filt gives first).
  const Watts full = assignment_power(nodes_, top(3));
  dpm.on_slot(0, kSecond, full - Watts{60.0}, full, nullptr);
  auto before = dpm.levels(0);
  ASSERT_NE(*std::min_element(before.begin(), before.end()),
            *std::max_element(before.begin(), before.end()));
  // Generous headroom, slot after slot: every lift raises exactly the
  // nodes at the pool minimum by one step and leaves the rest alone.
  for (int s = 0; s < 40 && dpm.level(0) < ladder_.max_level(); ++s) {
    const auto low = *std::min_element(before.begin(), before.end());
    dpm.on_slot(0, kSecond, Watts{1'000.0}, Watts{0.0}, nullptr);
    const auto& after = dpm.levels(0);
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_GE(after[i], before[i]);
      EXPECT_EQ(after[i], before[i] == low ? low + 1 : before[i]);
    }
    before = after;
  }
  EXPECT_EQ(dpm.level(0), ladder_.max_level());
}

TEST_F(DpmTest, HeadroomRestoresTheProtectedPoolFirst) {
  make_nodes(2);
  load(0, Catalog::kCollaFilt, 4);
  load(1, Catalog::kCollaFilt, 4);
  PooledDpm dpm({{nodes_[0]}, {nodes_[1]}}, ladder_);
  const Watts full = assignment_power(nodes_, top(2));
  dpm.on_slot(0, kSecond, Watts{1.0}, full, nullptr);  // both to the floor
  ASSERT_EQ(dpm.level(0), ladder_.min_level());
  ASSERT_EQ(dpm.level(1), ladder_.min_level());
  dpm.on_slot(0, kSecond, Watts{1'000.0}, Watts{0.0}, nullptr);
  EXPECT_EQ(dpm.level(0), ladder_.min_level());
  EXPECT_EQ(dpm.level(1), ladder_.min_level() + 1);
  // No lift when the raise would eat the hysteresis margin.
  const Watts tight = assignment_power(nodes_, {0, 1});
  dpm.on_slot(0, kSecond, tight, Watts{0.0}, nullptr);
  EXPECT_EQ(dpm.level(1), ladder_.min_level() + 1);
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
  cluster.install_scheme(std::make_unique<AntiDopeScheme>());

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
