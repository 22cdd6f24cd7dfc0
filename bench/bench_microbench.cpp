// Google-benchmark microbenchmarks of the simulator's hot paths: event
// engine throughput, server queueing, generator arrival scheduling, the
// per-request network path (least-loaded pick, firewall admit), and
// end-to-end scenario cost. These bound how large a cluster/window the
// harness can sweep.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "metrics/request_metrics.hpp"
#include "net/firewall.hpp"
#include "net/load_balancer.hpp"
#include "scenario/scenario.hpp"
#include "server/node.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dope;

void BM_EngineScheduleExecute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<Time>(i % 1'000), [] {});
    }
    engine.run_all();
    benchmark::DoNotOptimize(engine.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EngineScheduleExecute)->Arg(1'000)->Arg(100'000);

void BM_EngineScheduleCancelFire(benchmark::State& state) {
  // The mix every simulation layer generates: most scheduled events fire,
  // but a steady fraction (superseded DVFS actuations, retimed
  // completions, satisfied patience timers) is cancelled first.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    std::vector<sim::EventId> victims;
    victims.reserve(n / 4 + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<Time>(i % 1'024);
      if (i % 4 == 3) {
        victims.push_back(engine.schedule_at(t, [] {}));
      } else {
        engine.schedule_at(t, [&fired] { ++fired; });
      }
    }
    for (const auto id : victims) engine.cancel(id);
    engine.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EngineScheduleCancelFire)->Arg(1'000)->Arg(100'000);

void BM_EngineCompletionChains(benchmark::State& state) {
  // Steady-state schedule->fire churn: 64 concurrent chains where every
  // firing schedules its successor, the shape of server-completion and
  // generator-arrival traffic. The callback captures 24 bytes, past the
  // small-buffer threshold of libstdc++'s std::function, so this bench
  // exposes per-event heap traffic in the event core.
  constexpr std::uint64_t kChains = 64;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  struct Chain {
    sim::Engine* engine;
    std::uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      engine->schedule_after(100, Chain{engine, remaining});
    }
  };
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t remaining = n;
    for (std::uint64_t c = 0; c < kChains; ++c) {
      engine.schedule_after(static_cast<Duration>(c + 1),
                            Chain{&engine, &remaining});
    }
    engine.run_all();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EngineCompletionChains)->Arg(100'000);

void BM_EnginePeriodicTick(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t ticks = 0;
    auto handle = engine.every(kMillisecond, [&ticks] { ++ticks; });
    engine.run_until(kSecond);
    handle.stop();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(1'000 * state.iterations());
}
BENCHMARK(BM_EnginePeriodicTick);

void BM_ServerSaturatedChurn(benchmark::State& state) {
  const auto catalog = workload::Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t done = 0;
    server::ServerNode node(
        engine, 0, catalog, power::ServerPowerModel({}, ladder),
        {.queue_capacity = 10'000, .queue_deadline = 0},
        [&done](const workload::RequestRecord&) { ++done; });
    workload::GeneratorConfig gen_config;
    gen_config.mixture =
        workload::Mixture::single(workload::Catalog::kTextCont);
    gen_config.rate_rps = 800.0;  // saturating for one node
    workload::TrafficGenerator gen(
        engine, catalog, gen_config,
        [&node](workload::Request&& r) { node.submit(std::move(r)); });
    engine.run_until(10 * kSecond);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_ServerSaturatedChurn);

void BM_DvfsRetiming(benchmark::State& state) {
  // Cost of re-timing a full active set on every level change.
  const auto catalog = workload::Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  sim::Engine engine;
  server::ServerNode node(
      engine, 0, catalog, power::ServerPowerModel({}, ladder),
      {.queue_capacity = 64, .queue_deadline = 0, .dvfs_latency = 0},
      [](const workload::RequestRecord&) {});
  for (int i = 0; i < 4; ++i) {
    workload::Request r;
    r.type = workload::Catalog::kCollaFilt;
    r.size_factor = 1e6;  // effectively never finishes
    node.submit(std::move(r));
  }
  power::DvfsLevel level = 0;
  for (auto _ : state) {
    node.force_level(level);
    level = (level + 1) % ladder.levels();
    benchmark::DoNotOptimize(node.current_power());
  }
}
BENCHMARK(BM_DvfsRetiming);

void BM_LeastLoadedSelect(benchmark::State& state) {
  // One least-loaded pick over a pool of real nodes at mixed loads: 8 is
  // a standalone cluster, 25 and 75 the suspect and innocent pools of a
  // 100-server Anti-DOPE zone (site-10x100).
  const auto n = static_cast<int>(state.range(0));
  const auto catalog = workload::Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  sim::Engine engine;
  std::vector<std::unique_ptr<server::ServerNode>> nodes;
  std::vector<net::Backend*> pool;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<server::ServerNode>(
        engine, i, catalog, power::ServerPowerModel({}, ladder),
        server::ServerConfig{},
        [](const workload::RequestRecord&) {}));
    // Loads 1..7 (cores plus queue), the least loaded near the end.
    for (int k = 0; k < 1 + (n - i + 3) % 7; ++k) {
      workload::Request r;
      r.type = workload::Catalog::kCollaFilt;
      nodes.back()->submit(std::move(r));
    }
    if (i % 9 == 4) nodes.back()->set_accepting(false);
    pool.push_back(nodes.back().get());
  }
  net::LoadBalancer lb(net::LbPolicy::kLeastLoaded, pool);
  const workload::Request request;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb.select(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeastLoadedSelect)->Arg(8)->Arg(25)->Arg(75);

void BM_FirewallAdmit(benchmark::State& state) {
  // Per-request firewall admit over site-10x100's 896 sources: 256
  // normal clients and 640 DOPE agents (ids from 1,000,000), in a
  // seeded random order. The engine never advances, so no poll runs.
  std::vector<workload::SourceId> sources;
  for (workload::SourceId s = 0; s < 256; ++s) sources.push_back(s);
  for (workload::SourceId s = 0; s < 640; ++s) {
    sources.push_back(1'000'000 + s);
  }
  Rng rng(42);
  std::vector<workload::Request> stream(4'096);
  for (auto& r : stream) {
    r.source = sources[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(sources.size()) - 1))];
  }
  sim::Engine engine;
  net::Firewall firewall(engine, net::FirewallConfig{});
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(firewall.admit(stream[next]));
    next = (next + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FirewallAdmit);

void BM_LatencyRecordAndSummarize(benchmark::State& state) {
  // A run's latency bookkeeping: 1.7M completed requests recorded (about
  // site-10x100's 60 s), then the summary's p50/p90/p95/p99/min/max.
  // Latencies are seeded exponential draws, mean 20 ms, in microseconds.
  constexpr std::size_t kSamples = 1'700'000;
  Rng rng(42);
  std::vector<Duration> latencies(kSamples);
  for (auto& us : latencies) us = static_cast<Duration>(rng.exponential(2e4));
  workload::RequestRecord record;
  record.outcome = workload::RequestOutcome::kCompleted;
  for (auto _ : state) {
    metrics::RequestMetrics metrics;
    for (Duration us : latencies) {
      record.latency = us;
      metrics.record(record);
    }
    const auto& latency = metrics.normal_latency_ms();
    for (double p : {50.0, 90.0, 95.0, 99.0}) {
      benchmark::DoNotOptimize(latency.percentile(p));
    }
    benchmark::DoNotOptimize(latency.min());
    benchmark::DoNotOptimize(latency.max());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kSamples) *
                          state.iterations());
}
BENCHMARK(BM_LatencyRecordAndSummarize)->Unit(benchmark::kMillisecond);

void BM_ScenarioMinute(benchmark::State& state) {
  // End-to-end cost of one simulated minute of the evaluation cluster.
  for (auto _ : state) {
    scenario::ScenarioConfig config;
    config.scheme = scenario::SchemeKind::kAntiDope;
    config.budget = power::BudgetLevel::kLow;
    config.normal_rps = 300.0;
    config.attack_rps = 400.0;
    config.duration = kMinute;
    const auto r = scenario::run_scenario(config);
    benchmark::DoNotOptimize(r.mean_ms);
  }
}
BENCHMARK(BM_ScenarioMinute)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
