// End-to-end tests for request-lifecycle spans and per-source forensics.
//
// These run the golden attack scenario with spans attached and check the
// ISSUE's acceptance properties: span recording never perturbs the
// simulation, span ids are stable across reruns, the forensic ranking
// recovers the ground-truth botnet, attributed energy reconciles with
// the cluster's energy account, and the Chrome export carries paired
// per-slot duration tracks.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "antidope/antidope.hpp"
#include "antidope/suspect_list.hpp"
#include "common/rng.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "obs/span.hpp"
#include "power/dvfs.hpp"
#include "power/power_model.hpp"
#include "scenario/scenario.hpp"
#include "workload/catalog.hpp"

namespace dope::obs {
namespace {

scenario::ScenarioConfig small_attack_scenario() {
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.budget = power::BudgetLevel::kLow;
  config.num_servers = 4;
  config.normal_rps = 100.0;
  config.attack_rps = 200.0;
  config.duration = 60 * kSecond;
  config.seed = 7;
  return config;
}

Hub make_span_hub() { return Hub(HubConfig{.enable_spans = true}); }

// ------------------------------------------------ zero-perturbation

TEST(SpanScenario, AttachedSpansDoNotPerturbResults) {
  const auto plain = scenario::run_scenario(small_attack_scenario());

  Hub hub = make_span_hub();
  auto traced_config = small_attack_scenario();
  traced_config.obs = &hub;
  traced_config.default_alert_rules = true;
  const auto traced = scenario::run_scenario(traced_config);

  // Byte-identical simulation: every reported number matches exactly.
  EXPECT_EQ(plain.mean_ms, traced.mean_ms);
  EXPECT_EQ(plain.p50_ms, traced.p50_ms);
  EXPECT_EQ(plain.p99_ms, traced.p99_ms);
  EXPECT_EQ(plain.availability, traced.availability);
  EXPECT_EQ(plain.drop_fraction, traced.drop_fraction);
  EXPECT_EQ(plain.mean_power, traced.mean_power);
  EXPECT_EQ(plain.peak_power, traced.peak_power);
  EXPECT_EQ(plain.energy.utility, traced.energy.utility);
  EXPECT_EQ(plain.energy.battery, traced.energy.battery);
  EXPECT_EQ(plain.slot_stats.violation_slots,
            traced.slot_stats.violation_slots);
  ASSERT_EQ(plain.power_timeline.size(), traced.power_timeline.size());
  for (std::size_t i = 0; i < plain.power_timeline.size(); ++i) {
    EXPECT_EQ(plain.power_timeline[i].value,
              traced.power_timeline[i].value);
  }

  // And the tracer actually saw the run.
  ASSERT_NE(hub.spans(), nullptr);
  EXPECT_GT(hub.spans()->count(SpanKind::kRequest), 0u);
  EXPECT_GT(hub.spans()->count(SpanKind::kService), 0u);
}

TEST(SpanScenario, SpanIdsStableAcrossReruns) {
  Hub first_hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &first_hub;
  scenario::run_scenario(config);

  Hub second_hub = make_span_hub();
  config.obs = &second_hub;
  scenario::run_scenario(config);

  const auto& a = first_hub.spans()->spans();
  const auto& b = second_hub.spans()->spans();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].parent(), b[i].parent());
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].server, b[i].server);
    EXPECT_EQ(a[i].slot, b[i].slot);
  }
}

TEST(SpanScenario, SpanTreeIsCausallyConsistent) {
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &hub;
  scenario::run_scenario(config);

  for (const auto& span : hub.spans()->spans()) {
    // Stage lives in the low id bits; children point at their root.
    EXPECT_EQ(span.id & 7u, static_cast<std::uint64_t>(span.kind));
    if (span.kind == SpanKind::kRequest) {
      EXPECT_EQ(span.parent(), 0u);
    } else {
      EXPECT_EQ(span.parent(), span.id & ~std::uint64_t{7});
    }
    if (span.kind == SpanKind::kService) {
      EXPECT_GE(span.server, 0);
      EXPECT_GE(span.slot, 0);
      EXPECT_GT(span.power_w, Watts{0.0});
    }
    if (!span.open()) {
      EXPECT_GE(span.end, span.begin);
    }
  }

  // Every terminal request got a root span; only in-flight ones stay
  // open at the horizon.
  EXPECT_GE(hub.spans()->count(SpanKind::kRequest), 1u);
  EXPECT_EQ(hub.spans()->unmatched_ends(), 0u);
}

// ------------------------------------------------ forensics rollup

TEST(SpanForensics, TopSuspectsAreGroundTruthAttackers) {
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);
  (void)result;

  const auto forensics =
      Forensics::build(*hub.spans(), hub.trace(), config.duration);
  const auto top = forensics.top_by_joules(10);
  ASSERT_EQ(top.size(), 10u);

  // The DOPE botnet's sources start at 1'000'000; with the attack at 2x
  // the normal per-source heavy-blend rate, they dominate the energy
  // ranking — and their dominant URL classes are exactly the ones
  // Anti-DOPE's offline suspect list flags.
  const auto catalog = workload::Catalog::standard();
  const auto suspects = antidope::SuspectList::from_catalog(
      catalog, antidope::AntiDopeConfig{}.suspect_power_threshold);
  for (const auto& source : top) {
    EXPECT_GE(source.source_id, 1'000'000u) << source.source_id;
    EXPECT_TRUE(suspects.suspicious(source.dominant_class))
        << "class " << source.dominant_class;
    EXPECT_GT(source.requests, 0u);
    EXPECT_GT(source.joules, Joules{0.0});
    EXPECT_GT(source.occupancy_ms, 0.0);
  }
}

TEST(SpanForensics, TopSuspectOverlapsBudgetViolations) {
  // Without any power scheme the flood drives the cluster over budget,
  // so BudgetViolation instants land while attack requests occupy
  // slots — the forensic join must see those overlaps.
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.scheme = scenario::SchemeKind::kNone;
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);
  ASSERT_GT(result.slot_stats.violation_slots, 0u);

  const auto forensics =
      Forensics::build(*hub.spans(), hub.trace(), config.duration);
  EXPECT_EQ(forensics.violation_events(),
            result.slot_stats.violation_slots);
  const auto top = forensics.top_by_joules(5);
  ASSERT_FALSE(top.empty());
  EXPECT_GE(top.front().source_id, 1'000'000u);
  EXPECT_GT(top.front().violation_overlaps, 0u);
}

TEST(SpanForensics, JoulesReconcileWithEnergyAccount) {
  // Light normal-only load, no battery, no throttling: the cluster's
  // energy account is exactly idle draw + per-request active energy,
  // and the latter is what forensics attributes to sources.
  Hub hub = make_span_hub();
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kNone;
  config.budget = power::BudgetLevel::kNormal;
  config.num_servers = 4;
  config.normal_rps = 40.0;
  config.attack_rps = 0.0;
  config.duration = 30 * kSecond;
  config.battery_runtime = 0;
  config.seed = 11;
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);

  const auto forensics =
      Forensics::build(*hub.spans(), hub.trace(), config.duration);
  EXPECT_GT(forensics.total_joules(), Joules{0.0});

  const power::ServerPowerModel model(power::ServerPowerSpec{},
                                      power::DvfsLadder::make());
  const Joules idle{static_cast<double>(config.num_servers) *
                    model.idle_power(model.ladder().max_level()).value() *
                    to_seconds(config.duration)};
  const Joules expected = idle + forensics.total_joules();
  EXPECT_NEAR(result.energy.load_total().value(), expected.value(),
              1e-3 * result.energy.load_total().value());
}

// ------------------------------------------------ exports

TEST(SpanExport, ChromeTraceHasPairedSlotTracks) {
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &hub;
  scenario::run_scenario(config);

  std::ostringstream out;
  hub.write_chrome_trace(out);
  const std::string trace = out.str();

  // Per-slot duration events on the server-slots process, async request
  // lanes, and the process metadata naming both.
  EXPECT_NE(trace.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(trace.find("server slots"), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"service c"), std::string::npos);
}

TEST(SpanExport, ScenarioTraceCapMarksTruncation) {
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &hub;
  config.trace_cap = 64;
  scenario::run_scenario(config);

  EXPECT_EQ(hub.trace().events().size(), 64u);
  EXPECT_GT(hub.trace().dropped(), 0u);
  std::ostringstream out;
  hub.write_trace_jsonl(out);
  EXPECT_NE(out.str().find("\"type\": \"TraceTruncated\""),
            std::string::npos);
}

// ------------------------------------------------ block storage

/// A queue span of request `r`, begun at `r` µs.
Span queue_span(std::uint64_t r) {
  Span span;
  span.id = span_id_for(r, SpanKind::kQueue);
  span.kind = SpanKind::kQueue;
  span.begin = static_cast<Time>(r);
  span.source_id = static_cast<std::uint32_t>(r);
  return span;
}

TEST(SpanLog, IndexesAndIteratesAcrossTheBlockBoundary) {
  for (const std::size_t n : {kSpansPerBlock - 1, kSpansPerBlock,
                              kSpansPerBlock + 1}) {
    SpanTracer tracer;
    for (std::uint64_t r = 0; r < n; ++r) tracer.begin(queue_span(r));
    const SpanLog& spans = tracer.spans();
    ASSERT_EQ(spans.size(), n);
    EXPECT_EQ(static_cast<std::size_t>(std::distance(spans.begin(),
                                                     spans.end())),
              n);
    std::uint32_t expect = 0;
    for (const Span& span : spans) {
      ASSERT_EQ(span.source_id, expect) << "n " << n;
      ++expect;
    }
    EXPECT_EQ(expect, n);
    for (std::size_t i : {std::size_t{0}, n - 1}) {
      EXPECT_EQ(spans[i].id, span_id_for(i, SpanKind::kQueue)) << "n " << n;
      EXPECT_EQ(spans.begin()[static_cast<std::ptrdiff_t>(i)].begin,
                static_cast<Time>(i));
    }
    EXPECT_EQ(spans.back().source_id, n - 1);
    EXPECT_EQ(tracer.open_count(), n);
  }
}

TEST(SpanLog, SpanReferenceSurvivesBlockAllocations) {
  SpanTracer tracer;
  tracer.begin(queue_span(0));
  const Span& first = tracer.spans()[0];
  // Three more blocks: a vector log would have moved the span by now.
  for (std::uint64_t r = 1; r <= 3 * kSpansPerBlock; ++r) {
    tracer.begin(queue_span(r));
  }
  EXPECT_EQ(&first, &tracer.spans()[0]);
  tracer.end(first.id, 42, "dequeued");
  EXPECT_EQ(first.end, 42);
  EXPECT_STREQ(first.outcome, "dequeued");
  EXPECT_EQ(first.parent(), span_id_for(0, SpanKind::kRequest));
}

TEST(SpanLog, IdBegunTwiceWhileOpenClosesTheNewest) {
  SpanTracer tracer;
  Span older = queue_span(5);
  tracer.begin(older);
  Span newer = queue_span(5);
  newer.begin = 9;
  tracer.begin(newer);
  EXPECT_EQ(tracer.open_count(), 1u);  // one id, one open entry
  tracer.end(newer.id, 12, "dequeued");
  EXPECT_TRUE(tracer.spans()[0].open());
  EXPECT_EQ(tracer.spans()[1].end, 12);
  // The older span is unreachable now: a second end is unmatched.
  tracer.end(newer.id, 13, "dequeued");
  EXPECT_EQ(tracer.unmatched_ends(), 1u);
  EXPECT_TRUE(tracer.spans()[0].open());
}

TEST(SpanLog, OpenTableMatchesAMapReference) {
  // Thousands of ids open at once grow the open table several times;
  // ends in random order exercise the deletions that shift probe runs
  // back. Every end must find the span the map says it should.
  Rng rng(77);
  SpanTracer tracer;
  std::map<std::uint64_t, std::size_t> open;
  std::vector<std::uint64_t> ids;
  std::uint64_t unmatched = 0;
  Time now = 0;
  for (int step = 0; step < 40'000; ++step) {
    ++now;
    if (rng() % 3 != 0 || ids.empty()) {
      // Sequential and clustered ids, as the simulator makes them.
      const std::uint64_t r = rng() % 4 == 0 ? rng() % 6'000 : step;
      Span span = queue_span(r);
      span.begin = now;
      open[span.id] = tracer.spans().size();
      ids.push_back(span.id);
      tracer.begin(span);
    } else {
      const std::size_t k = rng() % ids.size();
      const std::uint64_t id = ids[k];
      ids[k] = ids.back();
      ids.pop_back();
      tracer.end(id, now, "done");
      const auto it = open.find(id);
      if (it == open.end()) {
        ++unmatched;
        continue;
      }
      ASSERT_EQ(tracer.spans()[it->second].end, now) << "step " << step;
      open.erase(it);
    }
    ASSERT_EQ(tracer.open_count(), open.size()) << "step " << step;
  }
  EXPECT_EQ(tracer.unmatched_ends(), unmatched);
  for (const auto& [id, index] : open) {
    EXPECT_TRUE(tracer.spans()[index].open()) << id;
  }
}

// ------------------------------------------------ attack-rate watchdog

TEST(SpanWatchdog, DefaultAttackRateRuleFiresDuringFlood) {
  Hub hub;
  auto config = small_attack_scenario();
  config.obs = &hub;
  config.default_alert_rules = true;
  scenario::run_scenario(config);

  bool saw_attack_rate = false;
  for (const auto& alert : hub.watchdog().alerts()) {
    if (alert.rule == "attack-rate") saw_attack_rate = true;
  }
  EXPECT_TRUE(saw_attack_rate);
  EXPECT_GT(hub.trace().count(EventType::kAlertRaised), 0u);
}

}  // namespace
}  // namespace dope::obs
