// Allocation tests for the hub's per-request logs: the span log and the
// event trace allocate whole blocks, never one record at a time.
//
// Like inline_function_test, this binary replaces the global allocator
// with a counting one, so the claims are asserted, not assumed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "obs/hub.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "workload/catalog.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
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
  // recorder, alert rules): Anti-DOPE at Low-PB, 300 rps normal traffic
  // and a 400 rps DOPE blend.
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.budget = power::BudgetLevel::kLow;
  config.normal_rps = 300.0;
  config.attack_rps = 400.0;
  config.attack_mixture = workload::Mixture(
      {workload::Catalog::kCollaFilt, workload::Catalog::kKMeans,
       workload::Catalog::kWordCount},
      {1.0, 1.0, 1.0});
  config.duration = 60 * kSecond;
  config.seed = 42;
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

}  // namespace
}  // namespace dope::obs
