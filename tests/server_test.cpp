// Unit tests for the compute-node model: queueing, DVFS-aware service,
// power/energy integration, timeouts, and rejection.
#include <gtest/gtest.h>

#include <vector>

#include "power/power_model.hpp"
#include "server/node.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"

namespace dope::server {
namespace {

using workload::Catalog;
using workload::Request;
using workload::RequestOutcome;
using workload::RequestRecord;

class ServerNodeTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Catalog catalog_ = Catalog::standard();
  power::DvfsLadder ladder_ = power::DvfsLadder::make();
  std::vector<RequestRecord> records_;

  std::unique_ptr<ServerNode> make_node(ServerConfig config = {}) {
    return std::make_unique<ServerNode>(
        engine_, 0, catalog_, power::ServerPowerModel({}, ladder_), config,
        [this](const RequestRecord& r) { records_.push_back(r); });
  }

  Request request(workload::RequestTypeId type, double size = 1.0) {
    Request r;
    r.id = static_cast<std::uint64_t>(records_.size()) + 1'000;
    r.type = type;
    r.arrival = engine_.now();
    r.size_factor = size;
    return r;
  }
};

TEST_F(ServerNodeTest, StartsIdleAtMaxFrequency) {
  auto node = make_node();
  EXPECT_EQ(node->level(), ladder_.max_level());
  EXPECT_EQ(node->active_count(), 0u);
  EXPECT_EQ(node->queue_length(), 0u);
  EXPECT_DOUBLE_EQ(node->current_power().value(), 38.0);  // idle at f_max
  EXPECT_TRUE(node->accepting());
}

TEST_F(ServerNodeTest, ServesOneRequestWithModelLatency) {
  auto node = make_node();
  node->submit(request(Catalog::kTextCont));
  EXPECT_EQ(node->active_count(), 1u);
  engine_.run_until(kSecond);
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].outcome, RequestOutcome::kCompleted);
  // Unloaded latency == service time at f_max (8 ms for Text-Cont).
  EXPECT_NEAR(to_millis(records_[0].latency), 8.0, 0.1);
  EXPECT_EQ(records_[0].server,
            (workload::ServerRef{workload::ServerRef::kNoZone, 0}));
  EXPECT_TRUE(records_[0].server.valid());
  EXPECT_EQ(node->counters().completed, 1u);
}

TEST_F(ServerNodeTest, PowerRisesWithActiveRequests) {
  auto node = make_node();
  const Watts idle = node->current_power();
  node->submit(request(Catalog::kCollaFilt));
  const Watts one = node->current_power();
  node->submit(request(Catalog::kCollaFilt));
  const Watts two = node->current_power();
  EXPECT_NEAR((one - idle).value(), 19.0, 1e-9);
  EXPECT_NEAR((two - one).value(), 19.0, 1e-9);
}

TEST_F(ServerNodeTest, PowerClampedAtNameplate) {
  auto node = make_node();
  for (int i = 0; i < 4; ++i) node->submit(request(Catalog::kKMeans));
  // 38 idle + 4*21 = 122, clamped to the 100 W nameplate.
  EXPECT_DOUBLE_EQ(node->current_power().value(), 100.0);
}

TEST_F(ServerNodeTest, QueueingBeyondCoresIsFcfs) {
  auto node = make_node();
  for (int i = 0; i < 6; ++i) node->submit(request(Catalog::kTextCont));
  EXPECT_EQ(node->active_count(), 4u);
  EXPECT_EQ(node->queue_length(), 2u);
  EXPECT_EQ(node->load(), 6u);
  engine_.run_until(kSecond);
  EXPECT_EQ(records_.size(), 6u);
  // FCFS: completion order matches submission order for equal sizes.
  for (std::size_t i = 1; i < records_.size(); ++i) {
    EXPECT_GE(records_[i].finish, records_[i - 1].finish);
  }
}

TEST_F(ServerNodeTest, RejectsWhenQueueFull) {
  ServerConfig config;
  config.queue_capacity = 2;
  auto node = make_node(config);
  for (int i = 0; i < 8; ++i) node->submit(request(Catalog::kCollaFilt));
  // 4 serving + 2 queued + 2 rejected.
  EXPECT_EQ(node->counters().rejected_queue_full, 2u);
  int rejected = 0;
  for (const auto& r : records_) {
    if (r.outcome == RequestOutcome::kRejectedQueueFull) ++rejected;
  }
  EXPECT_EQ(rejected, 2);
}

TEST_F(ServerNodeTest, QueuedRequestsTimeOut) {
  ServerConfig config;
  config.queue_deadline = millis(50.0);
  auto node = make_node(config);
  // Colla-Filt takes 80 ms; the 5th+ request waits > 50 ms.
  for (int i = 0; i < 8; ++i) {
    node->submit(request(Catalog::kCollaFilt, /*size=*/1.0));
  }
  engine_.run_until(2 * kSecond);
  EXPECT_GT(node->counters().timed_out, 0u);
  EXPECT_EQ(node->counters().completed + node->counters().timed_out, 8u);
}

TEST_F(ServerNodeTest, ThrottlingStretchesServiceTime) {
  auto node = make_node();
  node->force_level(0);  // 1.2 GHz
  node->submit(request(Catalog::kCollaFilt));
  engine_.run_until(kSecond);
  ASSERT_EQ(records_.size(), 1u);
  // alpha=0.9 at rel=0.5: slowdown 1.9 -> 80 ms * 1.9 = 152 ms.
  EXPECT_NEAR(to_millis(records_[0].latency), 152.0, 1.0);
}

TEST_F(ServerNodeTest, MidFlightFrequencyChangeIsWorkConserving) {
  ServerConfig config;
  config.dvfs_latency = 0;
  auto node = make_node(config);
  node->submit(request(Catalog::kCollaFilt));
  // Half the work done at full speed (40 ms of the 80 ms job)...
  engine_.run_until(millis(40.0));
  node->request_level(0);
  engine_.run_until(2 * kSecond);
  ASSERT_EQ(records_.size(), 1u);
  // ...then the remaining 40 ms of work at slowdown 1.9: 40+76 = 116 ms.
  EXPECT_NEAR(to_millis(records_[0].latency), 116.0, 2.0);
}

TEST_F(ServerNodeTest, DvfsActuationLatencyDelaysTheChange) {
  ServerConfig config;
  config.dvfs_latency = millis(100.0);
  auto node = make_node(config);
  node->request_level(0);
  EXPECT_EQ(node->level(), ladder_.max_level());  // not yet applied
  EXPECT_EQ(node->target_level(), 0u);
  engine_.run_until(millis(50.0));
  EXPECT_EQ(node->level(), ladder_.max_level());
  engine_.run_until(millis(150.0));
  EXPECT_EQ(node->level(), 0u);
}

TEST_F(ServerNodeTest, SupersededActuationAppliesNewestTarget) {
  ServerConfig config;
  config.dvfs_latency = millis(10.0);
  auto node = make_node(config);
  node->request_level(0);
  node->request_level(5);  // supersedes before the first lands
  engine_.run_until(millis(100.0));
  EXPECT_EQ(node->level(), 5u);
}

TEST_F(ServerNodeTest, EnergyIntegratesIdlePowerExactly) {
  auto node = make_node();
  engine_.run_until(10 * kSecond);
  EXPECT_NEAR(node->energy().value(), 38.0 * 10.0, 1e-6);
}

TEST_F(ServerNodeTest, EnergyAccountsForServiceWork) {
  auto node = make_node();
  node->submit(request(Catalog::kCollaFilt));  // 19 W for 80 ms
  engine_.run_until(kSecond);
  const Joules expected{38.0 * 1.0 + 19.0 * 0.080};
  EXPECT_NEAR(node->energy().value(), expected.value(), 0.05);
}

TEST_F(ServerNodeTest, EstimatePowerAtMatchesCurrentLevel) {
  auto node = make_node();
  node->submit(request(Catalog::kKMeans));
  EXPECT_DOUBLE_EQ(node->estimate_power_at(node->level()).value(),
                   node->current_power().value());
  // Lower levels estimate lower (or equal, given clamping) power.
  Watts prev{-1.0};
  for (power::DvfsLevel l = 0; l < ladder_.levels(); ++l) {
    const Watts p = node->estimate_power_at(l);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST_F(ServerNodeTest, ThrottledKMeansPowerBarelyDrops) {
  // The Fig. 6b effect at node level.
  auto node = make_node();
  node->submit(request(Catalog::kKMeans));
  const Watts at_max = node->estimate_power_at(ladder_.max_level());
  const Watts at_min = node->estimate_power_at(0);
  const double kmeans_drop = (at_max - at_min) / at_max;
  EXPECT_LT(kmeans_drop, 0.35);
}

TEST_F(ServerNodeTest, NonAcceptingNodeRefusesSubmit) {
  auto node = make_node();
  node->set_accepting(false);
  EXPECT_FALSE(node->accepting());
  EXPECT_THROW(node->submit(request(Catalog::kTextCont)),
               std::invalid_argument);
}

/// The key the load balancer must see for the node's current state.
std::uint32_t implied_key(const ServerNode& node) {
  return node.accepting() ? static_cast<std::uint32_t>(node.load())
                          : net::Backend::kOff;
}

TEST_F(ServerNodeTest, PublishedKeyTracksEveryTransition) {
  ServerConfig config;
  config.queue_deadline = millis(50.0);
  std::unique_ptr<ServerNode> node;
  int emitted = 0;
  // The key is republished before any record leaves the node, so a sink
  // that re-dispatches sees the state the record describes.
  node = std::make_unique<ServerNode>(
      engine_, 0, catalog_, power::ServerPowerModel({}, ladder_), config,
      [&](const RequestRecord&) {
        EXPECT_EQ(node->lb_key(), implied_key(*node));
        ++emitted;
      });
  const auto expect_key = [&](const char* after) {
    EXPECT_EQ(node->lb_key(), implied_key(*node)) << "after " << after;
  };
  expect_key("construction");
  EXPECT_EQ(node->lb_key(), 0u);

  // begin_service (4 cores), then queue pushes.
  for (int i = 0; i < 8; ++i) {
    node->submit(request(Catalog::kCollaFilt));
    expect_key("submit");
  }
  EXPECT_EQ(node->lb_key(), 8u);
  node->set_accepting(false);
  expect_key("set_accepting(false)");
  EXPECT_EQ(node->lb_key(), net::Backend::kOff);
  node->set_accepting(true);
  expect_key("set_accepting(true)");

  // Completions release slots and drain the queue; Colla-Filt's 80 ms
  // service outlasts the 50 ms deadline, so later pops time out.
  while (node->load() > 0 && engine_.step()) expect_key("an event");
  EXPECT_GT(node->counters().timed_out, 0u);

  node->park();
  expect_key("park");
  node->unpark();
  expect_key("unpark");
  EXPECT_TRUE(node->waking());
  engine_.run_until(engine_.now() + 3 * kSecond);
  expect_key("wake completion");
  EXPECT_EQ(node->lb_key(), 0u);

  for (int i = 0; i < 6; ++i) node->submit(request(Catalog::kCollaFilt));
  node->power_off();
  expect_key("power_off");
  node->power_on(kSecond);
  expect_key("power_on");
  engine_.run_until(engine_.now() + 2 * kSecond);
  expect_key("boot completion");
  EXPECT_EQ(node->lb_key(), 0u);
  EXPECT_EQ(emitted, 14);
}

TEST_F(ServerNodeTest, ManyRequestsAllTerminate) {
  auto node = make_node();
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    engine_.schedule_at(i * millis(2.0), [this, &node] {
      node->submit(request(Catalog::kTextCont));
    });
  }
  engine_.run_until(30 * kSecond);
  EXPECT_EQ(records_.size(), static_cast<std::size_t>(n));
  for (const auto& r : records_) {
    EXPECT_EQ(r.outcome, RequestOutcome::kCompleted);
  }
}

TEST_F(ServerNodeTest, UtilizationDrivesThroughputAtCapacity) {
  // Offered load beyond capacity: throughput ~= cores / service_time.
  auto node = make_node({.queue_capacity = 10'000, .queue_deadline = 0});
  const int n = 3'000;
  for (int i = 0; i < n; ++i) {
    engine_.schedule_at(i * millis(1.0), [this, &node] {
      node->submit(request(Catalog::kCollaFilt));
    });
  }
  engine_.run_until(10 * kSecond);
  // Capacity = 4 cores / 80 ms = 50 rps; in 10 s ≈ 500 completions.
  EXPECT_NEAR(static_cast<double>(node->counters().completed), 500.0, 50.0);
}

}  // namespace
}  // namespace dope::server
