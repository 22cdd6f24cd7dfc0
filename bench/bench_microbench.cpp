// Google-benchmark microbenchmarks of the simulator's hot paths: event
// engine throughput, server queueing, generator arrival scheduling, the
// per-request network path (least-loaded pick, firewall admit), span and
// event recording, the span-merged trace export and forensics rollup,
// and end-to-end scenario cost. These bound how large a cluster/window
// the harness can sweep.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <queue>
#include <streambuf>
#include <functional>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "metrics/request_metrics.hpp"
#include "net/firewall.hpp"
#include "net/load_balancer.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
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

/// Stream buffer that counts what is written to it and keeps nothing.
class ByteCounter : public std::streambuf {
 public:
  std::int64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += n;
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes_;
    return traits_type::not_eof(c);
  }

 private:
  std::int64_t bytes_ = 0;
};

/// Records into `h` (spans on) what the golden 60 s run records: 42k
/// forwarded requests, each with a RequestForwarded event, a root span
/// and an LB-pick instant; about a third queue and three in five reach
/// a slot, whose service span closes at the same µs as its root. Spans
/// open and close in time order, as the engine's clock makes them.
/// About 125k spans and 42k events.
void record_golden_sized(obs::Hub& h) {
  obs::SpanTracer& spans = *h.spans();
  Rng rng(42);
  // Span opens and closes due later, in (time, scheduling) order. A
  // close carries only the id and outcome of the span.
  struct Due {
    Time t;
    std::uint64_t order;
    obs::Span span;
    bool open;
    bool operator>(const Due& o) const {
      return std::tie(t, order) > std::tie(o.t, o.order);
    }
  };
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due;
  std::uint64_t scheduled = 0;
  const auto schedule = [&](Time t, const obs::Span& span, bool open) {
    due.push(Due{t, scheduled++, span, open});
  };
  const auto run_until = [&](Time t) {
    while (!due.empty() && due.top().t <= t) {
      const Due& d = due.top();
      if (d.open) {
        spans.begin(d.span);
      } else {
        spans.end(d.span.id, d.t, d.span.outcome);
      }
      due.pop();
    }
  };
  Time now = 0;
  for (std::uint64_t request = 1; request <= 41'991; ++request) {
    now += static_cast<Time>(rng.exponential(1'429.0)) + 1;
    run_until(now);
    const bool attack = rng() % 2 == 0;
    obs::Span span;
    span.id = obs::span_id_for(request, obs::SpanKind::kRequest);
    span.begin = now;
    span.source_id = attack ? 1'000'001 + static_cast<std::uint32_t>(
                                              rng() % 64)
                            : static_cast<std::uint32_t>(rng() % 256);
    span.url_class = static_cast<std::uint32_t>(rng() % 4);
    span.label = attack ? "attack" : "normal";
    const int server = static_cast<int>(rng() % 8);

    obs::TraceEvent e;
    e.t = now;
    e.type = obs::EventType::kRequestForwarded;
    e.source = "edge";
    e.num = {{"server", server},
             {"url_class", span.url_class},
             {"source_id", span.source_id}};
    e.str = {{"pool", "scheme"}};
    h.event(e);

    spans.begin(span);
    obs::Span pick = span;
    pick.id = obs::span_id_for(request, obs::SpanKind::kLbPick);
    pick.kind = obs::SpanKind::kLbPick;
    pick.server = server;
    pick.label = attack ? "suspect" : "normal";
    spans.instant(pick, now);

    Time end = now;
    span.outcome = "dropped";
    if (rng() % 3 == 0) {
      obs::Span queue = pick;
      queue.id = obs::span_id_for(request, obs::SpanKind::kQueue);
      queue.kind = obs::SpanKind::kQueue;
      queue.label = "";
      queue.outcome = "dequeued";
      spans.begin(queue);
      end += static_cast<Time>(rng.exponential(20'000.0));
      schedule(end, queue, false);
    }
    if (rng() % 5 < 3) {
      obs::Span service = pick;
      service.id = obs::span_id_for(request, obs::SpanKind::kService);
      service.kind = obs::SpanKind::kService;
      service.begin = end;
      service.slot = static_cast<int>(rng() % 4);
      service.power_w = Watts{5.0 + static_cast<double>(rng() % 20)};
      service.label = "";
      service.outcome = "completed";
      schedule(end, service, true);
      end += static_cast<Time>(rng.exponential(30'000.0)) + 1;
      schedule(end, service, false);
      span.outcome = "completed";
    }
    schedule(end, span, false);
  }
  run_until(60 * kSecond);
}

/// A hub holding `record_golden_sized`'s records; built once, on first
/// use.
const obs::Hub& golden_sized_hub() {
  static const auto hub = [] {
    auto h = std::make_unique<obs::Hub>(obs::HubConfig{.enable_spans = true});
    record_golden_sized(*h);
    return h;
  }();
  return *hub;
}

void BM_ObsRecord(benchmark::State& state) {
  // Recording a golden-sized run into a fresh hub: the span log's begin,
  // end and instant, and the event trace's record, with their growth.
  std::size_t spans = 0;
  std::size_t events = 0;
  for (auto _ : state) {
    obs::Hub hub(obs::HubConfig{.enable_spans = true});
    record_golden_sized(hub);
    spans = hub.spans()->spans().size();
    events = hub.trace().events().size();
  }
  state.counters["spans"] = static_cast<double>(spans);
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_ObsRecord)->Unit(benchmark::kMillisecond);

void BM_TraceJsonlExport(benchmark::State& state) {
  // The span-merged JSONL export of a golden-sized run, into a sink that
  // only counts bytes.
  const obs::Hub& hub = golden_sized_hub();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    ByteCounter counter;
    std::ostream sink(&counter);
    hub.write_trace_jsonl(sink);
    bytes = counter.bytes();
  }
  state.SetBytesProcessed(bytes * state.iterations());
  state.counters["spans"] = static_cast<double>(hub.spans()->spans().size());
  state.counters["events"] = static_cast<double>(hub.trace().events().size());
}
BENCHMARK(BM_TraceJsonlExport)->Unit(benchmark::kMillisecond);

void BM_ForensicsBuild(benchmark::State& state) {
  // The per-source forensics rollup of the same run.
  const obs::Hub& hub = golden_sized_hub();
  for (auto _ : state) {
    const auto forensics =
        obs::Forensics::build(*hub.spans(), hub.trace(), 60 * kSecond);
    benchmark::DoNotOptimize(forensics.total_joules());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(hub.spans()->spans().size()) *
      state.iterations());
}
BENCHMARK(BM_ForensicsBuild)->Unit(benchmark::kMillisecond);

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
