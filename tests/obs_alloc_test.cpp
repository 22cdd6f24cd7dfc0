// Allocation tests for the per-request logs: the hub's span log and
// event trace, and a run's latency store, allocate whole blocks, never
// one record at a time, and free nothing while they grow. A gate on the
// peak live heap of the golden run keeps the whole simulator's memory
// from creeping back.
//
// Like inline_function_test, this binary replaces the global allocator
// with a counting one, so the claims are asserted, not assumed. Live
// bytes are counted as `malloc_usable_size`, which depends only on the
// sizes requested, so the peak repeats exactly from run to run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <malloc.h>

#include "metrics/request_metrics.hpp"
#include "obs/hub.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "workload/catalog.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_live_bytes{0};

void* counted(void* p) {
  if (p == nullptr) return p;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t bytes = malloc_usable_size(p);
  const std::uint64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted(std::malloc(size))) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(std::malloc(size));
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  release(p);
}

// The array forms too: a sanitizer runtime defines its own, which would
// not reach the counting ones above.
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted(std::malloc(size));
}
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace dope::obs {
namespace {

/// Allocations performed by `fn`, as seen by the replaced global new.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Frees performed by `fn`, as seen by the replaced global delete.
template <typename Fn>
std::uint64_t frees_during(Fn&& fn) {
  const std::uint64_t before = g_frees.load(std::memory_order_relaxed);
  fn();
  return g_frees.load(std::memory_order_relaxed) - before;
}

/// The most bytes live at once during `fn`, above those live before it.
template <typename Fn>
std::uint64_t peak_live_bytes_during(Fn&& fn) {
  const std::uint64_t before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(before, std::memory_order_relaxed);
  fn();
  return g_peak_live_bytes.load(std::memory_order_relaxed) - before;
}

/// The golden run: Anti-DOPE at Low-PB, 300 rps normal traffic and a
/// 400 rps DOPE blend.
scenario::ScenarioConfig golden_config(Duration duration) {
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.budget = power::BudgetLevel::kLow;
  config.normal_rps = 300.0;
  config.attack_rps = 400.0;
  config.attack_mixture = workload::Mixture(
      {workload::Catalog::kCollaFilt, workload::Catalog::kKMeans,
       workload::Catalog::kWordCount},
      {1.0, 1.0, 1.0});
  config.duration = duration;
  config.seed = 42;
  return config;
}

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

constexpr std::size_t kRecords = 10'000;

TEST(ObsAlloc, SpanLogAllocatesOnlyWholeBlocks) {
  SpanTracer tracer;
  // Warm-up: one full block, and the open-span table at its first size.
  for (std::uint64_t r = 0; r < kSpansPerBlock; ++r) {
    Span span;
    span.id = span_id_for(r, SpanKind::kQueue);
    span.kind = SpanKind::kQueue;
    tracer.begin(span);
    tracer.end(span.id, 1, "dequeued");
  }
  ASSERT_EQ(tracer.spans().size(), kSpansPerBlock);

  // Each request: a root begun, an LB-pick instant, the root ended.
  const std::uint64_t allocs = allocations_during([&] {
    for (std::uint64_t r = 0; r < kRecords / 2; ++r) {
      Span root;
      root.id = span_id_for(kSpansPerBlock + r, SpanKind::kRequest);
      root.begin = static_cast<Time>(r);
      tracer.begin(root);
      Span pick = root;
      pick.id = span_id_for(kSpansPerBlock + r, SpanKind::kLbPick);
      pick.kind = SpanKind::kLbPick;
      tracer.instant(pick, root.begin);
      tracer.end(root.id, root.begin + 1, "completed");
    }
  });
  EXPECT_EQ(tracer.spans().size(), kSpansPerBlock + kRecords);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_LE(allocs, ceil_div(kRecords, kSpansPerBlock));
}

TEST(ObsAlloc, EventLogAllocatesOnlyWholeBlocksAndInternedStrings) {
  TraceRecorder trace;
  // Warm-up: the first header and field blocks, no string values yet.
  TraceEvent first;
  first.num.emplace_back("server", 0.0);
  trace.record(first);

  // RequestForwarded-shaped events: three numeric fields and one string
  // field (9 words), cycling through three distinct short values.
  const std::string pools[] = {"scheme", "suspect", "innocent"};
  const std::uint64_t allocs = allocations_during([&] {
    for (std::size_t i = 0; i < kRecords; ++i) {
      TraceEvent e;
      e.t = static_cast<Time>(i);
      e.source = "edge";
      e.num.emplace_back("server", static_cast<double>(i % 8));
      e.num.emplace_back("url_class", 1.0);
      e.num.emplace_back("source_id", static_cast<double>(i));
      e.str.emplace_back("pool", pools[i % 3]);
      trace.record(e);
    }
  });
  ASSERT_EQ(trace.events().size(), kRecords + 1);
  constexpr std::size_t kRunBytes = 3 * sizeof(NumField) + sizeof(StrField);
  constexpr std::size_t kRunsPerBlock = kFieldBlockBytes / kRunBytes;
  EXPECT_LE(allocs, ceil_div(kRecords, kEventsPerBlock) +
                        ceil_div(kRecords, kRunsPerBlock) + 3);
}

TEST(ObsAlloc, GoldenAttachedRunAllocatesUnderATenthPerRequest) {
  // The golden 60 s run with the full hub (spans, series, flight
  // recorder, alert rules).
  scenario::ScenarioConfig config = golden_config(60 * kSecond);
  config.default_alert_rules = true;

  std::uint64_t requests = 0;
  const std::uint64_t allocs = allocations_during([&] {
    Hub hub(HubConfig{.enable_spans = true,
                      .enable_timeseries = true,
                      .enable_flight = true});
    config.obs = &hub;
    const auto r = scenario::run_scenario(config);
    requests = r.normal_counts.terminal() + r.attack_counts.terminal();
  });
  ASSERT_GT(requests, 10'000u);
  const double per_request =
      static_cast<double>(allocs) / static_cast<double>(requests);
  RecordProperty("allocations", std::to_string(allocs));
  RecordProperty("requests", std::to_string(requests));
  EXPECT_LE(per_request, 0.1) << allocs << " allocations for " << requests
                              << " requests";
}

TEST(ObsAlloc, EmptyLatencyStoresAllocateNothing) {
  // A run's set-up builds its recorders' two empty stores.
  EXPECT_EQ(allocations_during([] {
              metrics::RequestMetrics recorder;
              EXPECT_EQ(recorder.normal_latency_ms().percentile(99), 0.0);
              EXPECT_EQ(recorder.attack_latency_ms().max(), 0.0);
            }),
            0u);
}

TEST(ObsAlloc, LatencyStoreGrowsByWholeBlocksAndReadsAllocateNothing) {
  // About site-10x100's completions: the store's blocks plus one block
  // table, and nothing freed, so no sample is ever copied.
  constexpr std::size_t kSamples = 1'700'000;
  constexpr std::size_t kBlock = metrics::LatencyStore::kBlock;
  static_assert(ceil_div(kSamples, kBlock) <= kBlockTableReserve);
  metrics::LatencyStore store;
  std::uint64_t allocs = 0;
  const std::uint64_t frees = frees_during([&] {
    allocs = allocations_during([&] {
      for (std::size_t i = 0; i < kSamples; ++i) {
        store.add(static_cast<Duration>(i * 7919 % 400'000));
      }
    });
  });
  EXPECT_EQ(allocs, ceil_div(kSamples, kBlock) + 1);
  EXPECT_EQ(frees, 0u);

  const std::uint64_t read_allocs = allocations_during([&] {
    for (double p : {50.0, 90.0, 95.0, 99.0, 0.0, 100.0}) {
      (void)store.percentile(p);
    }
    (void)store.mean();
    (void)store.min();
    (void)store.max();
  });
  EXPECT_EQ(read_allocs, 0u);
}

TEST(ObsAlloc, GoldenRunPeakLiveHeapIsBounded) {
  // The golden 600 s run, no hub: the peak of live heap bytes, which
  // repeats exactly. Measured at 1,225,184 bytes with the latency
  // samples in fixed blocks (1,936,312 when each population's samples
  // were one doubling vector); the bound is that plus 10 %.
  constexpr std::uint64_t kMeasured = 1'225'184;
  std::uint64_t requests = 0;
  const std::uint64_t peak = peak_live_bytes_during([&] {
    const auto r = scenario::run_scenario(golden_config(600 * kSecond));
    requests = r.normal_counts.terminal() + r.attack_counts.terminal();
  });
  ASSERT_GT(requests, 100'000u);
  RecordProperty("peak_live_bytes", std::to_string(peak));
  EXPECT_LE(peak, kMeasured + kMeasured / 10) << peak << " bytes";
}

}  // namespace
}  // namespace dope::obs
