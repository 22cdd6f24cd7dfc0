// Unit tests for the network layer: load balancer, token bucket, firewall.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "net/backend.hpp"
#include "net/firewall.hpp"
#include "net/load_balancer.hpp"
#include "net/switch.hpp"
#include "net/token_bucket.hpp"
#include "obs/hub.hpp"
#include "sim/engine.hpp"

namespace dope::net {
namespace {

using workload::Request;
using workload::SourceId;

/// Minimal backend recording what it received; publishes its key after
/// every change, as the Backend contract asks.
class FakeBackend final : public Backend {
 public:
  explicit FakeBackend(int id) : id_(id) { publish(); }
  int backend_id() const override { return id_; }
  void submit(Request&& r) override {
    received.push_back(std::move(r));
    ++load_;
    publish();
  }

  void set_load(std::uint32_t l) {
    load_ = l;
    publish();
  }
  void set_accepting(bool a) {
    accepting_ = a;
    publish();
  }
  std::vector<Request> received;

 private:
  void publish() { set_lb_key(accepting_ ? load_ : kOff); }

  int id_;
  std::uint32_t load_ = 0;
  bool accepting_ = true;
};

std::vector<std::unique_ptr<FakeBackend>> make_backends(int n) {
  std::vector<std::unique_ptr<FakeBackend>> out;
  for (int i = 0; i < n; ++i) out.push_back(std::make_unique<FakeBackend>(i));
  return out;
}

std::vector<Backend*> pool_of(
    const std::vector<std::unique_ptr<FakeBackend>>& backends) {
  std::vector<Backend*> pool;
  for (const auto& b : backends) pool.push_back(b.get());
  return pool;
}

// ---------------------------------------------------------- load balancer

TEST(LoadBalancer, RoundRobinCyclesThroughPool) {
  auto backends = make_backends(3);
  LoadBalancer lb(LbPolicy::kRoundRobin, pool_of(backends));
  for (int i = 0; i < 9; ++i) {
    Request r;
    r.id = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(lb.dispatch(std::move(r)));
  }
  for (const auto& b : backends) EXPECT_EQ(b->received.size(), 3u);
  EXPECT_EQ(lb.dispatched(), 9u);
}

TEST(LoadBalancer, RoundRobinSkipsNonAccepting) {
  auto backends = make_backends(3);
  backends[1]->set_accepting(false);
  LoadBalancer lb(LbPolicy::kRoundRobin, pool_of(backends));
  for (int i = 0; i < 4; ++i) {
    Request r;
    ASSERT_TRUE(lb.dispatch(std::move(r)));
  }
  EXPECT_EQ(backends[0]->received.size(), 2u);
  EXPECT_EQ(backends[1]->received.size(), 0u);
  EXPECT_EQ(backends[2]->received.size(), 2u);
}

TEST(LoadBalancer, LeastLoadedPicksEmptiest) {
  auto backends = make_backends(3);
  backends[0]->set_load(5);
  backends[1]->set_load(1);
  backends[2]->set_load(3);
  LoadBalancer lb(LbPolicy::kLeastLoaded, pool_of(backends));
  Request r;
  Backend* chosen = lb.select(r);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->backend_id(), 1);
}

TEST(LoadBalancer, LeastLoadedIgnoresNonAccepting) {
  auto backends = make_backends(2);
  backends[0]->set_load(0);
  backends[0]->set_accepting(false);
  backends[1]->set_load(10);
  LoadBalancer lb(LbPolicy::kLeastLoaded, pool_of(backends));
  Request r;
  Backend* chosen = lb.select(r);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->backend_id(), 1);
}

TEST(LoadBalancer, ReturnsNullWhenNobodyAccepts) {
  auto backends = make_backends(2);
  backends[0]->set_accepting(false);
  backends[1]->set_accepting(false);
  for (auto policy : {LbPolicy::kRoundRobin, LbPolicy::kLeastLoaded,
                      LbPolicy::kRandom, LbPolicy::kSourceHash}) {
    LoadBalancer lb(policy, pool_of(backends));
    Request r;
    EXPECT_EQ(lb.select(r), nullptr);
    Request r2;
    EXPECT_FALSE(lb.dispatch(std::move(r2)));
  }
}

TEST(LoadBalancer, LeastLoadedTiesGoToTheLowestPoolPosition) {
  auto backends = make_backends(5);
  backends[0]->set_load(4);
  backends[1]->set_load(2);
  backends[2]->set_load(2);
  backends[3]->set_load(2);
  backends[4]->set_load(3);
  // Pool order differs from backend ids: the tie among ids 1, 2 and 3
  // goes to whichever sits first in the pool, here id 3.
  std::vector<Backend*> pool{backends[4].get(), backends[3].get(),
                             backends[0].get(), backends[1].get(),
                             backends[2].get()};
  LoadBalancer lb(LbPolicy::kLeastLoaded, pool);
  Request r;
  ASSERT_NE(lb.select(r), nullptr);
  EXPECT_EQ(lb.select(r)->backend_id(), 3);
  backends[3]->set_accepting(false);
  EXPECT_EQ(lb.select(r)->backend_id(), 1);
}

TEST(LoadBalancer, MixedLoadsAllOffReturnNullUnderEveryPolicy) {
  auto backends = make_backends(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    backends[i]->set_load(i * 7);
    backends[i]->set_accepting(false);
  }
  // An off backend keeps its load but publishes kOff.
  EXPECT_EQ(backends[3]->lb_key(), Backend::kOff);
  for (auto policy : {LbPolicy::kRoundRobin, LbPolicy::kLeastLoaded,
                      LbPolicy::kRandom, LbPolicy::kSourceHash}) {
    LoadBalancer lb(policy, pool_of(backends));
    for (SourceId s = 0; s < 8; ++s) {
      Request r;
      r.source = s;
      EXPECT_EQ(lb.select(r), nullptr);
    }
  }
}

TEST(LoadBalancer, SourceHashIsSticky) {
  auto backends = make_backends(4);
  LoadBalancer lb(LbPolicy::kSourceHash, pool_of(backends));
  Request r;
  r.source = 1234;
  Backend* first = lb.select(r);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(lb.select(r), first);
  }
  // Different sources should spread across more than one backend.
  std::set<int> chosen;
  for (SourceId s = 0; s < 32; ++s) {
    Request q;
    q.source = s;
    chosen.insert(lb.select(q)->backend_id());
  }
  EXPECT_GT(chosen.size(), 1u);
}

TEST(LoadBalancer, RandomSpreadsRoughlyEvenly) {
  auto backends = make_backends(4);
  LoadBalancer lb(LbPolicy::kRandom, pool_of(backends));
  for (int i = 0; i < 4'000; ++i) {
    Request r;
    lb.dispatch(std::move(r));
  }
  for (const auto& b : backends) {
    EXPECT_NEAR(static_cast<double>(b->received.size()), 1'000.0, 150.0);
  }
}

TEST(LoadBalancer, RejectsEmptyOrNullPool) {
  EXPECT_THROW(LoadBalancer(LbPolicy::kRoundRobin, {}),
               std::invalid_argument);
  std::vector<Backend*> with_null{nullptr};
  EXPECT_THROW(LoadBalancer(LbPolicy::kRoundRobin, with_null),
               std::invalid_argument);
}

// ------------------------------------------------------------ token bucket

TEST(TokenBucket, StartsFullAndConsumes) {
  TokenBucket bucket(100.0, 10.0);
  EXPECT_DOUBLE_EQ(bucket.available(0), 100.0);
  EXPECT_TRUE(bucket.try_consume(60.0, 0));
  EXPECT_DOUBLE_EQ(bucket.available(0), 40.0);
  EXPECT_FALSE(bucket.try_consume(60.0, 0));
  EXPECT_EQ(bucket.admitted(), 1u);
  EXPECT_EQ(bucket.rejected(), 1u);
}

TEST(TokenBucket, RefillsOverTime) {
  TokenBucket bucket(100.0, 10.0);
  ASSERT_TRUE(bucket.try_consume(100.0, 0));
  EXPECT_FALSE(bucket.try_consume(50.0, 0));
  // After 5 seconds, 50 tokens are back.
  EXPECT_TRUE(bucket.try_consume(50.0, 5 * kSecond));
}

TEST(TokenBucket, RefillCapsAtCapacity) {
  TokenBucket bucket(100.0, 10.0);
  bucket.try_consume(10.0, 0);
  EXPECT_DOUBLE_EQ(bucket.available(kHour), 100.0);
}

TEST(TokenBucket, SetRefillRateTakesEffect) {
  TokenBucket bucket(100.0, 10.0);
  ASSERT_TRUE(bucket.try_consume(100.0, 0));
  bucket.set_refill_rate(100.0, 0);
  EXPECT_TRUE(bucket.try_consume(90.0, kSecond));
}

TEST(TokenBucket, ZeroCostAlwaysAdmits) {
  TokenBucket bucket(10.0, 0.0);
  ASSERT_TRUE(bucket.try_consume(10.0, 0));
  EXPECT_TRUE(bucket.try_consume(0.0, 0));
}

TEST(TokenBucket, RejectsTimeTravelAndBadArgs) {
  TokenBucket bucket(10.0, 1.0);
  bucket.try_consume(1.0, kSecond);
  EXPECT_THROW(bucket.try_consume(1.0, 0), std::invalid_argument);
  EXPECT_THROW(bucket.try_consume(-1.0, 2 * kSecond), std::invalid_argument);
  EXPECT_THROW(TokenBucket(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(1.0, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- firewall

Request request_from(SourceId source) {
  Request r;
  r.source = source;
  return r;
}

TEST(Firewall, AdmitsLowRateTraffic) {
  sim::Engine engine;
  FirewallConfig config;
  config.threshold_rps = 150.0;
  config.check_interval = 5 * kSecond;
  Firewall firewall(engine, config);
  // 100 rps from one source: under the threshold.
  auto gen = engine.every(millis(10.0), [&] {
    EXPECT_TRUE(firewall.admit(request_from(1)));
  });
  engine.run_until(20 * kSecond);
  gen.stop();
  EXPECT_EQ(firewall.blocked(), 0u);
  EXPECT_EQ(firewall.banned_count(), 0u);
}

TEST(Firewall, BansHighRateSourceAfterPoll) {
  sim::Engine engine;
  FirewallConfig config;
  config.threshold_rps = 150.0;
  config.check_interval = 5 * kSecond;
  Firewall firewall(engine, config);
  int admitted = 0, blocked = 0;
  // 500 rps from a single source.
  auto gen = engine.every(millis(2.0), [&] {
    if (firewall.admit(request_from(9))) ++admitted;
    else ++blocked;
  });
  engine.run_until(20 * kSecond);
  gen.stop();
  EXPECT_TRUE(firewall.is_banned(9));
  EXPECT_GT(blocked, 0);
  // Detection lag: everything in the first poll window passed.
  EXPECT_GE(admitted, 2'400);  // ~2500 requests in the first 5 s window
  EXPECT_EQ(firewall.total_bans(), 1u);
}

TEST(Firewall, DetectionLagLetsEarlyFloodThrough) {
  // The Fig. 10 effect: power spikes before the firewall reacts.
  sim::Engine engine;
  FirewallConfig config;
  config.threshold_rps = 150.0;
  config.check_interval = 5 * kSecond;
  Firewall firewall(engine, config);
  int first_window = 0;
  auto gen = engine.every(millis(2.0), [&] {
    if (firewall.admit(request_from(3)) && engine.now() < 5 * kSecond) {
      ++first_window;
    }
  });
  engine.run_until(6 * kSecond);
  gen.stop();
  EXPECT_GT(first_window, 2'000);
}

TEST(Firewall, ManyAgentsUnderThresholdStayInvisible) {
  // The DOPE stealth property: aggregate 1000 rps over 32 agents keeps
  // each agent at ~31 rps, far below the 150 rps per-source threshold.
  sim::Engine engine;
  FirewallConfig config;
  config.threshold_rps = 150.0;
  config.check_interval = 5 * kSecond;
  Firewall firewall(engine, config);
  SourceId next = 0;
  auto gen = engine.every(kSecond / 1'000, [&] {
    EXPECT_TRUE(firewall.admit(request_from(next % 32)));
    ++next;
  });
  engine.run_until(30 * kSecond);
  gen.stop();
  EXPECT_EQ(firewall.banned_count(), 0u);
  EXPECT_EQ(firewall.blocked(), 0u);
}

TEST(Firewall, BanExpiresAfterDuration) {
  sim::Engine engine;
  FirewallConfig config;
  config.threshold_rps = 10.0;
  config.check_interval = kSecond;
  config.ban_duration = 10 * kSecond;
  Firewall firewall(engine, config);
  // Burst over threshold during the first second only.
  for (int i = 0; i < 50; ++i) firewall.admit(request_from(5));
  engine.run_until(2 * kSecond);  // poll happens, ban starts
  EXPECT_TRUE(firewall.is_banned(5));
  engine.run_until(15 * kSecond);
  EXPECT_FALSE(firewall.is_banned(5));
  EXPECT_TRUE(firewall.admit(request_from(5)));
}

TEST(Firewall, MultiStrikeRequiresPersistence) {
  sim::Engine engine;
  FirewallConfig config;
  config.threshold_rps = 10.0;
  config.check_interval = kSecond;
  config.required_strikes = 3;
  Firewall firewall(engine, config);
  // One hot window, then quiet: no ban.
  for (int i = 0; i < 100; ++i) firewall.admit(request_from(1));
  engine.run_until(5 * kSecond);
  EXPECT_FALSE(firewall.is_banned(1));
  // Three consecutive hot windows: ban.
  auto gen = engine.every(millis(20.0), [&] {
    firewall.admit(request_from(1));
  });
  engine.run_until(engine.now() + 4 * kSecond);
  gen.stop();
  EXPECT_TRUE(firewall.is_banned(1));
}

TEST(Firewall, BanOrderIsSortedBySourceId) {
  // The poll window is a hash table; ban decisions emit log lines
  // and kFirewallBan trace events, so poll() must visit a sorted
  // materialization — hash order would leak table-size-dependent bytes
  // into exports. Flood from ids inserted in a scrambled order and
  // lock in ascending trace order.
  sim::Engine engine;
  obs::Hub hub;
  engine.set_obs(&hub);
  FirewallConfig config;
  config.threshold_rps = 10.0;
  config.check_interval = kSecond;
  Firewall firewall(engine, config);
  for (const SourceId source : {41u, 7u, 23u, 3u, 99u, 58u}) {
    for (int i = 0; i < 50; ++i) firewall.admit(request_from(source));
  }
  engine.run_until(2 * kSecond);
  std::vector<double> banned;
  for (const auto& e : hub.trace().events()) {
    if (e.type == obs::EventType::kFirewallBan) {
      for (const auto& [key, value] : e.num) {
        if (std::string_view(key) == "source_id") banned.push_back(value);
      }
    }
  }
  const std::vector<double> expected = {3, 7, 23, 41, 58, 99};
  EXPECT_EQ(banned, expected);
}

TEST(Firewall, WindowCountsMatchAReferenceMapAcrossTableGrowth) {
  // 300 distinct sources make the window table (16 cells, doubled at
  // half load) grow five times within one window. The ids include 0 and
  // attack-range ids at and above 1,000,000.
  sim::Engine engine;
  obs::Hub hub;
  engine.set_obs(&hub);
  FirewallConfig config;
  config.threshold_rps = 20.0;
  config.check_interval = kSecond;
  Firewall firewall(engine, config);
  Rng rng(2024);
  std::map<SourceId, std::uint32_t> reference;
  for (SourceId s = 0; s < 200; ++s) {
    reference[s] = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
  }
  for (SourceId s = 0; s < 100; ++s) {
    reference[1'000'000 + s * 4'099] =
        static_cast<std::uint32_t>(rng.uniform_int(1, 40));
  }
  reference[0] = 30;
  reference[1'000'000] = 25;
  std::vector<SourceId> stream;
  for (const auto& [source, count] : reference) {
    stream.insert(stream.end(), count, source);
  }
  for (std::size_t i = stream.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(stream[i], stream[j]);
  }
  for (const SourceId source : stream) {
    ASSERT_TRUE(firewall.admit(request_from(source)));
  }

  EXPECT_EQ(firewall.window_sources(), reference.size());
  std::vector<double> expected_bans;
  for (const auto& [source, count] : reference) {
    EXPECT_EQ(firewall.window_count(source), count) << source;
    if (count > 20) expected_bans.push_back(source);
  }
  EXPECT_EQ(firewall.window_count(999'999), 0u);

  engine.run_until(kSecond);  // the poll at t = 1 s
  for (const auto& [source, count] : reference) {
    EXPECT_EQ(firewall.is_banned(source), count > 20) << source;
  }
  std::vector<double> banned;
  for (const auto& e : hub.trace().events()) {
    if (e.type != obs::EventType::kFirewallBan) continue;
    for (const auto& [key, value] : e.num) {
      if (std::string_view(key) == "source_id") banned.push_back(value);
    }
  }
  EXPECT_EQ(banned, expected_bans);  // ascending source id
  EXPECT_EQ(firewall.total_bans(), expected_bans.size());
  EXPECT_EQ(firewall.window_sources(), 0u);
  for (const auto& [source, count] : reference) {
    EXPECT_EQ(firewall.window_count(source), 0u) << source;
  }

  // The next window reuses the cleared table.
  ASSERT_TRUE(firewall.admit(request_from(123'456)));
  ASSERT_TRUE(firewall.admit(request_from(123'456)));
  EXPECT_EQ(firewall.window_count(123'456), 2u);
  EXPECT_EQ(firewall.window_sources(), 1u);
}

TEST(Firewall, ValidatesConfig) {
  sim::Engine engine;
  FirewallConfig config;
  config.threshold_rps = 0.0;
  EXPECT_THROW(Firewall(engine, config), std::invalid_argument);
  config = {};
  config.required_strikes = 0;
  EXPECT_THROW(Firewall(engine, config), std::invalid_argument);
}


// ------------------------------------------------------------------ switch

TEST(Switch, ForwardsWithinCapacity) {
  Switch sw({.capacity_pps = 1'000.0, .buffer_packets = 100.0});
  // 500 pps offered for 2 seconds: everything fits.
  int dropped = 0;
  for (int i = 0; i < 1'000; ++i) {
    const Time t = i * (2 * kSecond / 1'000);
    if (!sw.forward(t)) ++dropped;
  }
  EXPECT_EQ(dropped, 0);
  EXPECT_DOUBLE_EQ(sw.drop_rate(), 0.0);
}

TEST(Switch, DropsWhenSaturated) {
  Switch sw({.capacity_pps = 1'000.0, .buffer_packets = 50.0});
  // 10x capacity: ~90% must be dropped once the buffer is gone.
  int forwarded = 0;
  const int offered = 20'000;
  for (int i = 0; i < offered; ++i) {
    const Time t = i * (2 * kSecond / offered);
    if (sw.forward(t)) ++forwarded;
  }
  EXPECT_NEAR(static_cast<double>(forwarded), 2'000.0 + 50.0, 60.0);
  EXPECT_GT(sw.drop_rate(), 0.85);
}

TEST(Switch, BufferAbsorbsShortBursts) {
  Switch sw({.capacity_pps = 100.0, .buffer_packets = 64.0});
  // An instantaneous burst of 64 packets rides the buffer.
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(sw.forward(0));
  }
  EXPECT_FALSE(sw.forward(0));
}

TEST(Switch, ValidatesConfig) {
  EXPECT_THROW(Switch({.capacity_pps = 0.0}), std::invalid_argument);
  EXPECT_THROW(Switch({.capacity_pps = 10.0, .buffer_packets = 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dope::net
