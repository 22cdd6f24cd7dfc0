// Unit tests for metrics: request populations, timelines, energy account.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "metrics/energy.hpp"
#include "metrics/request_metrics.hpp"
#include "metrics/timeline.hpp"
#include "sim/engine.hpp"

namespace dope::metrics {
namespace {

using workload::RequestOutcome;
using workload::RequestRecord;

RequestRecord record_of(bool attack, RequestOutcome outcome,
                        Duration latency = millis(10.0)) {
  RequestRecord r;
  r.request.ground_truth_attack = attack;
  r.outcome = outcome;
  r.latency = latency;
  return r;
}

TEST(RequestMetrics, SplitsPopulationsByGroundTruth) {
  RequestMetrics m;
  m.record(record_of(false, RequestOutcome::kCompleted));
  m.record(record_of(true, RequestOutcome::kCompleted));
  m.record(record_of(true, RequestOutcome::kCompleted));
  EXPECT_EQ(m.normal_counts().completed, 1u);
  EXPECT_EQ(m.attack_counts().completed, 2u);
  EXPECT_EQ(m.normal_latency_ms().count(), 1u);
  EXPECT_EQ(m.attack_latency_ms().count(), 2u);
}

TEST(RequestMetrics, CountsEveryOutcomeKind) {
  RequestMetrics m;
  m.record(record_of(false, RequestOutcome::kCompleted));
  m.record(record_of(false, RequestOutcome::kDroppedByLimit));
  m.record(record_of(false, RequestOutcome::kBlockedByFirewall));
  m.record(record_of(false, RequestOutcome::kRejectedQueueFull));
  m.record(record_of(false, RequestOutcome::kTimedOut));
  const auto& c = m.normal_counts();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.dropped_by_limit, 1u);
  EXPECT_EQ(c.blocked_by_firewall, 1u);
  EXPECT_EQ(c.rejected_queue_full, 1u);
  EXPECT_EQ(c.timed_out, 1u);
  EXPECT_EQ(c.terminal(), 5u);
  EXPECT_EQ(c.lost(), 4u);
}

TEST(RequestMetrics, OnlyCompletionsContributeLatency) {
  RequestMetrics m;
  m.record(record_of(false, RequestOutcome::kTimedOut, millis(500.0)));
  m.record(record_of(false, RequestOutcome::kCompleted, millis(20.0)));
  EXPECT_EQ(m.normal_latency_ms().count(), 1u);
  EXPECT_DOUBLE_EQ(m.normal_latency_ms().mean(), 20.0);
}

TEST(RequestMetrics, AvailabilityIsNormalCompletionFraction) {
  RequestMetrics m;
  EXPECT_DOUBLE_EQ(m.availability(), 1.0);  // vacuous before traffic
  m.record(record_of(false, RequestOutcome::kCompleted));
  m.record(record_of(false, RequestOutcome::kTimedOut));
  m.record(record_of(true, RequestOutcome::kTimedOut));  // attacker ignored
  EXPECT_DOUBLE_EQ(m.availability(), 0.5);
}

TEST(RequestMetrics, DropFractionSpansBothPopulations) {
  RequestMetrics m;
  m.record(record_of(false, RequestOutcome::kCompleted));
  m.record(record_of(true, RequestOutcome::kDroppedByLimit));
  m.record(record_of(true, RequestOutcome::kDroppedByLimit));
  m.record(record_of(true, RequestOutcome::kCompleted));
  EXPECT_DOUBLE_EQ(m.drop_fraction(), 0.5);
}

TEST(RequestMetrics, SinkAdapterForwards) {
  RequestMetrics m;
  auto sink = m.sink();
  sink(record_of(false, RequestOutcome::kCompleted));
  EXPECT_EQ(m.normal_counts().completed, 1u);
}

// ------------------------------------------------------------ latency store

constexpr Duration k2Pow32 = Duration{1} << 32;

// Every read of `store` equals a `Percentiles` fed the milliseconds of
// the same samples. Bitwise: the store promises the same arithmetic.
void expect_matches_reference(const LatencyStore& store,
                              const std::vector<Duration>& samples) {
  Percentiles reference;
  for (Duration us : samples) reference.add(to_millis(us));
  ASSERT_EQ(store.count(), reference.count());
  EXPECT_EQ(store.empty(), reference.empty());
  EXPECT_EQ(store.mean(), reference.mean());  // before any sort
  for (double p : {0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9,
                   100.0}) {
    EXPECT_EQ(store.percentile(p), reference.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(store.median(), reference.median());
  EXPECT_EQ(store.min(), reference.min());
  EXPECT_EQ(store.max(), reference.max());
}

TEST(LatencyStore, MatchesPercentilesOnRandomDrawsWithTies) {
  Rng rng(42);
  // Few distinct values (many ties) and a wide spread.
  for (Duration spread : {Duration{7}, Duration{5'000'000}}) {
    for (std::size_t n : {2u, 3u, 10u, 101u, 4096u}) {
      LatencyStore store;
      std::vector<Duration> samples;
      for (std::size_t i = 0; i < n; ++i) {
        samples.push_back(rng.uniform_int(0, spread));
        store.add(samples.back());
      }
      SCOPED_TRACE(testing::Message() << "spread " << spread << " n " << n);
      expect_matches_reference(store, samples);
    }
  }
}

TEST(LatencyStore, EmptyAndSingleSample) {
  LatencyStore store;
  expect_matches_reference(store, {});
  EXPECT_EQ(store.percentile(99), 0.0);
  store.add(1234);
  expect_matches_reference(store, {1234});
  EXPECT_EQ(store.percentile(99), 1.234);
}

TEST(LatencyStore, KeepsLatenciesPast32BitsWhole) {
  // Both sides of the 32-bit boundary, the 2^32 us sample exactly on it,
  // and order statistics that straddle the two vectors. Every prefix,
  // so the first (one wide sample only) and mixed stores are covered.
  const std::vector<Duration> samples = {
      k2Pow32,     500,        k2Pow32 - 1, 3 * k2Pow32 + 17, 0,
      k2Pow32,     k2Pow32 + 1, 70'000,      k2Pow32 - 1};
  for (std::size_t n = 1; n <= samples.size(); ++n) {
    LatencyStore store;
    const std::vector<Duration> head(samples.begin(), samples.begin() + n);
    for (Duration us : head) store.add(us);
    SCOPED_TRACE(n);
    expect_matches_reference(store, head);
  }
}

TEST(LatencyStore, MeanIsTheInsertionOrderSumAfterPercentileReads) {
  Rng rng(7);
  LatencyStore store;
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const Duration us = rng.uniform_int(0, 900'000);
    store.add(us);
    sum += to_millis(us);
  }
  const double mean = sum / 10'000.0;
  EXPECT_EQ(store.mean(), mean);
  // Order-statistic reads must not move the mean.
  (void)store.percentile(99);
  (void)store.median();
  EXPECT_EQ(store.mean(), mean);
}

constexpr std::size_t kBlock = LatencyStore::kBlock;

TEST(LatencyStore, MatchesPercentilesAcrossBlockEdges) {
  Rng rng(11);
  for (Duration spread : {Duration{50}, Duration{3'000'000}}) {
    for (std::size_t n :
         {kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 7}) {
      LatencyStore store;
      std::vector<Duration> samples;
      for (std::size_t i = 0; i < n; ++i) {
        samples.push_back(rng.uniform_int(0, spread));
        store.add(samples.back());
      }
      SCOPED_TRACE(testing::Message() << "spread " << spread << " n " << n);
      expect_matches_reference(store, samples);
    }
  }
}

TEST(LatencyStore, ReadOrderDoesNotMatter) {
  // Decreasing and repeated ranks on one store read what a fresh store
  // reads for each rank alone.
  Rng rng(5);
  std::vector<Duration> samples;
  for (std::size_t i = 0; i < 2 * kBlock + 3; ++i) {
    samples.push_back(static_cast<Duration>(rng.exponential(2e4)));
  }
  const auto filled = [&](LatencyStore& store) {
    for (Duration us : samples) store.add(us);
  };
  LatencyStore store;
  filled(store);
  for (double p : {99.0, 50.0, 99.0, 0.0, 100.0, 37.5, 37.5}) {
    LatencyStore fresh;
    filled(fresh);
    EXPECT_EQ(store.percentile(p), fresh.percentile(p)) << "p" << p;
  }
}

TEST(LatencyStore, WideSamplesAcrossABlockEdge) {
  // A block and a half of narrow samples, with wide ones (2^32 us and
  // up) added around the first block's edge and among the ties at the
  // 32-bit boundary; ranks on both sides of the narrow/wide split.
  Rng rng(9);
  LatencyStore store;
  std::vector<Duration> samples;
  const auto add = [&](Duration us) {
    samples.push_back(us);
    store.add(us);
  };
  for (std::size_t i = 0; i < kBlock + kBlock / 2; ++i) {
    if (i + 2 == kBlock || i == kBlock + 1) {
      add(k2Pow32 + rng.uniform_int(0, 9));
    }
    if (i == kBlock) add(5 * k2Pow32);
    add(i % 97 == 0 ? k2Pow32 - 1 : rng.uniform_int(0, 1'000'000));
  }
  expect_matches_reference(store, samples);
  const auto wide = static_cast<double>(std::count_if(
      samples.begin(), samples.end(),
      [](Duration us) { return us >= k2Pow32; }));
  const double n = static_cast<double>(samples.size());
  // The ranks right at the split: the largest narrow sample and the
  // smallest wide one.
  Percentiles reference;
  for (Duration us : samples) reference.add(to_millis(us));
  for (double rank : {n - wide - 1.5, n - wide - 1.0, n - wide - 0.5}) {
    const double p = rank / (n - 1.0) * 100.0;
    EXPECT_EQ(store.percentile(p), reference.percentile(p)) << rank;
  }
}

TEST(LatencyStore, ReadsLeaveMeanMinAndMaxUnchanged) {
  Rng rng(3);
  LatencyStore store;
  for (std::size_t i = 0; i < kBlock + 100; ++i) {
    store.add(rng.uniform_int(100, 400'000));
  }
  store.add(k2Pow32 + 5);
  const double mean = store.mean();
  const double min = store.min();
  const double max = store.max();
  for (double p : {100.0, 0.0, 50.0, 99.9}) (void)store.percentile(p);
  EXPECT_EQ(store.mean(), mean);
  EXPECT_EQ(store.min(), min);
  EXPECT_EQ(store.max(), max);
  EXPECT_EQ(store.max(), to_millis(k2Pow32 + 5));
}

TEST(LatencyStore, RejectsNegativeLatencyAndOutOfRangeRank) {
  LatencyStore store;
  EXPECT_THROW(store.add(-1), std::invalid_argument);
  EXPECT_TRUE(store.empty());
  store.add(1);
  EXPECT_THROW((void)store.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)store.percentile(100.1), std::invalid_argument);
}

TEST(RequestMetrics, CountsOnlyRecorderKeepsNoLatency) {
  RequestMetrics m(/*keep_latency=*/false);
  m.record(record_of(false, RequestOutcome::kCompleted));
  m.record(record_of(true, RequestOutcome::kCompleted));
  EXPECT_EQ(m.normal_counts().completed, 1u);
  EXPECT_EQ(m.attack_counts().completed, 1u);
  EXPECT_TRUE(m.normal_latency_ms().empty());
  EXPECT_TRUE(m.attack_latency_ms().empty());
}

// ---------------------------------------------------------------- timeline

TEST(TimelineRecorder, SamplesAtFixedInterval) {
  sim::Engine engine;
  double value = 1.0;
  TimelineRecorder recorder(engine, kSecond, [&value] { return value; });
  engine.run_until(3 * kSecond + kSecond / 2);
  ASSERT_EQ(recorder.samples().size(), 3u);
  EXPECT_EQ(recorder.samples()[0].t, kSecond);
  EXPECT_EQ(recorder.samples()[2].t, 3 * kSecond);
}

TEST(TimelineRecorder, TracksChangingSignal) {
  sim::Engine engine;
  TimelineRecorder recorder(engine, kSecond, [&engine] {
    return static_cast<double>(engine.now() / kSecond);
  });
  engine.run_until(10 * kSecond);
  EXPECT_EQ(recorder.samples().size(), 10u);
  EXPECT_DOUBLE_EQ(recorder.stats().min(), 1.0);
  EXPECT_DOUBLE_EQ(recorder.stats().max(), 10.0);
  EXPECT_DOUBLE_EQ(recorder.stats().mean(), 5.5);
}

TEST(TimelineRecorder, StopHaltsSampling) {
  sim::Engine engine;
  TimelineRecorder recorder(engine, kSecond, [] { return 1.0; });
  engine.run_until(2 * kSecond);
  recorder.stop();
  engine.run_until(10 * kSecond);
  EXPECT_EQ(recorder.samples().size(), 2u);
}

TEST(TimelineRecorder, MeanBetweenWindows) {
  sim::Engine engine;
  TimelineRecorder recorder(engine, kSecond, [&engine] {
    return engine.now() <= 5 * kSecond ? 10.0 : 20.0;
  });
  engine.run_until(10 * kSecond);
  EXPECT_DOUBLE_EQ(recorder.mean_between(0, 5 * kSecond + 1), 10.0);
  EXPECT_DOUBLE_EQ(recorder.mean_between(6 * kSecond, 11 * kSecond), 20.0);
  EXPECT_DOUBLE_EQ(recorder.mean_between(50 * kSecond, 60 * kSecond), 0.0);
}

TEST(TimelineRecorder, ValidatesArguments) {
  sim::Engine engine;
  EXPECT_THROW(TimelineRecorder(engine, 0, [] { return 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(TimelineRecorder(engine, kSecond, nullptr),
               std::invalid_argument);
}

// ------------------------------------------------------------------ energy

TEST(EnergyAccount, SlotAccumulationBySource) {
  EnergyAccount account;
  account.add_slot(Watts{300.0}, Watts{50.0}, Watts{20.0}, kSecond);
  account.add_slot(Watts{300.0}, Watts{0.0}, Watts{0.0}, kSecond);
  EXPECT_DOUBLE_EQ(account.utility.value(), 600.0);
  EXPECT_DOUBLE_EQ(account.battery.value(), 50.0);
  EXPECT_DOUBLE_EQ(account.recharge.value(), 20.0);
  EXPECT_DOUBLE_EQ(account.load_total().value(), 650.0);
  EXPECT_DOUBLE_EQ(account.utility_total().value(), 620.0);
}

TEST(EnergyAccount, JouleAccumulation) {
  EnergyAccount account;
  account.add_joules(Joules{100.0}, Joules{10.0}, Joules{5.0});
  account.add_joules(Joules{1.0}, Joules{2.0}, Joules{3.0});
  EXPECT_DOUBLE_EQ(account.utility.value(), 101.0);
  EXPECT_DOUBLE_EQ(account.battery.value(), 12.0);
  EXPECT_DOUBLE_EQ(account.recharge.value(), 8.0);
}

}  // namespace
}  // namespace dope::metrics
