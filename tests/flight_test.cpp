// Tests for the flight-recorder pillar: time-series downsampling edge
// cases (ring wrap at tier boundaries, runs shorter than one tier,
// zero-sample export), trigger dedup and the IncidentTruncated cap,
// and the end-to-end acceptance properties from docs/OBSERVABILITY.md —
// a breaker trip yields a schema-valid bundle whose pre-trigger power
// series reconciles with the energy account and whose suspect ranking
// matches obs::Forensics, and dopereport renders it.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "power/breaker.hpp"
#include "scenario/scenario.hpp"

namespace dope::obs {
namespace {

// ------------------------------------------------ downsampling tiers

TEST(TimeSeries, TierBucketsFoldMinMeanMax) {
  Series series("s");
  // Values 0..24: bucket 0 folds 0..9, bucket 1 folds 10..19; 20..24
  // are still accumulating and must not appear in tier1 yet.
  for (int i = 0; i < 25; ++i) {
    series.sample(i * kSecond, static_cast<double>(i));
  }
  const auto tier1 = series.tier1();
  ASSERT_EQ(tier1.size(), 2u);
  EXPECT_EQ(tier1[0].first_index, 0u);
  EXPECT_EQ(tier1[0].count, kTier1FanIn);
  EXPECT_EQ(tier1[0].min, 0.0);
  EXPECT_EQ(tier1[0].max, 9.0);
  EXPECT_DOUBLE_EQ(tier1[0].mean(), 4.5);
  EXPECT_EQ(tier1[1].first_index, 10u);
  EXPECT_EQ(tier1[1].min, 10.0);
  EXPECT_EQ(tier1[1].max, 19.0);
  EXPECT_DOUBLE_EQ(tier1[1].mean(), 14.5);
  EXPECT_TRUE(series.tier2().empty());  // needs 100 samples
  EXPECT_EQ(series.total_samples(), 25u);
  EXPECT_EQ(series.last_value(), 24.0);
}

TEST(TimeSeries, RawRingWrapKeepsTierBoundariesAligned) {
  // 35 samples past the raw ring's capacity: eviction crosses bucket
  // boundaries, yet the folded aggregates must stay exact because
  // folding happens at sample time, not from the ring.
  constexpr int kSamples = static_cast<int>(kRawCapacity) + 35;
  Series series("s");
  for (int i = 0; i < kSamples; ++i) {
    series.sample(i * kSecond, static_cast<double>(i));
  }
  const auto raw = series.raw();
  ASSERT_EQ(raw.size(), kRawCapacity);
  // Oldest-first, indices monotone and surviving eviction: 35..634.
  for (std::size_t k = 0; k < raw.size(); ++k) {
    EXPECT_EQ(raw[k].index, 35u + k);
    EXPECT_EQ(raw[k].value, static_cast<double>(35 + k));
    if (k > 0) {
      EXPECT_GT(raw[k].index, raw[k - 1].index);
    }
  }
  const auto tier1 = series.tier1();
  ASSERT_EQ(tier1.size(), static_cast<std::size_t>(kSamples) / kTier1FanIn);
  for (std::size_t b = 0; b < tier1.size(); ++b) {
    EXPECT_EQ(tier1[b].first_index, b * kTier1FanIn);
    EXPECT_EQ(tier1[b].count, kTier1FanIn);
    const double lo = static_cast<double>(b * kTier1FanIn);
    EXPECT_EQ(tier1[b].min, lo);
    EXPECT_EQ(tier1[b].max, lo + 9.0);
    EXPECT_DOUBLE_EQ(tier1[b].mean(), lo + 4.5);
    EXPECT_LE(tier1[b].min, tier1[b].mean());
    EXPECT_LE(tier1[b].mean(), tier1[b].max);
  }
  // Whole-run totals ignore eviction entirely.
  EXPECT_EQ(series.total_samples(), static_cast<std::uint64_t>(kSamples));
  EXPECT_DOUBLE_EQ(series.total_sum(), kSamples * (kSamples - 1) / 2.0);
  EXPECT_EQ(series.seen_min(), 0.0);
  EXPECT_EQ(series.seen_max(), kSamples - 1.0);
}

TEST(TimeSeries, TierRingsThemselvesWrap) {
  // Six tier-1 buckets past the tier-1 ring's capacity: only the last
  // kTier1Capacity survive.
  constexpr std::size_t kBuckets = kTier1Capacity + 6;
  Series series("s");
  for (std::size_t i = 0; i < kBuckets * kTier1FanIn; ++i) {
    series.sample(static_cast<Time>(i) * kSecond, static_cast<double>(i));
  }
  const auto tier1 = series.tier1();
  ASSERT_EQ(tier1.size(), kTier1Capacity);
  EXPECT_EQ(tier1.front().first_index, 6 * kTier1FanIn);
  EXPECT_EQ(tier1[1].first_index, 7 * kTier1FanIn);
  EXPECT_EQ(tier1.back().first_index, (kBuckets - 1) * kTier1FanIn);
}

TEST(TimeSeries, RunShorterThanOneTier) {
  Series series("s");
  for (int i = 0; i < 4; ++i) {
    series.sample(i * kSecond, 2.0 * i);
  }
  EXPECT_EQ(series.raw().size(), 4u);
  EXPECT_TRUE(series.tier1().empty());
  EXPECT_TRUE(series.tier2().empty());
  std::ostringstream out;
  series.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"samples\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"tier10\": []"), std::string::npos);
  EXPECT_NE(json.find("\"tier100\": []"), std::string::npos);
}

TEST(TimeSeries, ZeroSampleExport) {
  Series series("empty");
  EXPECT_EQ(series.total_samples(), 0u);
  EXPECT_EQ(series.seen_min(), 0.0);
  EXPECT_EQ(series.seen_max(), 0.0);
  EXPECT_TRUE(series.raw().empty());
  std::ostringstream out;
  series.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"samples\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"raw\": []"), std::string::npos);
}

TEST(TimeSeriesStore, ExportIsNameSorted) {
  TimeSeriesStore store;
  store.series("zeta").sample(0, 1.0);
  store.series("alpha").sample(0, 2.0);
  std::ostringstream out;
  store.write_json(out);
  const std::string json = out.str();
  const auto alpha = json.find("\"alpha\"");
  const auto zeta = json.find("\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);
  // Same handle on re-lookup.
  EXPECT_EQ(&store.series("alpha"), &store.series("alpha"));
  EXPECT_EQ(store.size(), 2u);
}

// ------------------------------------------------ trigger handling

TraceEvent breaker_trip(Time t) {
  TraceEvent e;
  e.t = t;
  e.type = EventType::kBreakerTrip;
  e.source = "breaker";
  e.num = {{"utility_w", 700.0}, {"rated_w", 550.0}, {"trips", 1.0}};
  return e;
}

TraceEvent budget_violation(Time t, int zone = -1) {
  TraceEvent e;
  e.t = t;
  e.type = EventType::kBudgetViolation;
  e.source = "cluster";
  e.num = {{"overshoot_w", 42.0}};
  if (zone >= 0) e.num.emplace_back("zone", static_cast<double>(zone));
  return e;
}

struct Rig {
  TraceRecorder trace;
  FlightRecorder flight;

  Rig() : flight(nullptr, &trace, nullptr) {
    FlightRunContext context;
    context.seed = 42;
    context.scheme = "none";
    context.slot = 1 * kSecond;
    context.duration = 60 * kSecond;
    flight.set_run_context(context);
  }
};

TEST(FlightRecorder, SameSlotTriggersProduceOneIncident) {
  Rig rig;
  // Two triggers inside management slot 3 (t in [3 s, 4 s)).
  rig.flight.on_trace_event(breaker_trip(3 * kSecond));
  rig.flight.on_trace_event(
      budget_violation(3 * kSecond + 500 * kMillisecond));
  EXPECT_EQ(rig.flight.incident_count(), 1u);
  EXPECT_EQ(rig.flight.triggers(), 1u);
  EXPECT_EQ(rig.flight.deduped(), 1u);
  // A trigger in the next slot is a fresh incident.
  rig.flight.on_trace_event(breaker_trip(4 * kSecond));
  EXPECT_EQ(rig.flight.incident_count(), 2u);
  EXPECT_EQ(rig.flight.deduped(), 1u);
}

TEST(FlightRecorder, BudgetViolationOnsetOnly) {
  Rig rig;
  // Slots 1-2-3 are one continuing violation; slot 10 is a new onset.
  rig.flight.on_trace_event(budget_violation(1 * kSecond));
  rig.flight.on_trace_event(budget_violation(2 * kSecond));
  rig.flight.on_trace_event(budget_violation(3 * kSecond));
  rig.flight.on_trace_event(budget_violation(10 * kSecond));
  EXPECT_EQ(rig.flight.incident_count(), 2u);
  EXPECT_EQ(rig.flight.deduped(), 0u);
}

TEST(FlightRecorder, ViolationOnsetsTrackedPerZone) {
  Rig rig;
  rig.flight.on_trace_event(budget_violation(1 * kSecond, 0));
  // Same slot, other zone: a distinct onset, deduped into the incident.
  rig.flight.on_trace_event(budget_violation(1 * kSecond, 1));
  // Zone 1 continues; zone 0 re-onsets after its gap.
  rig.flight.on_trace_event(budget_violation(2 * kSecond, 1));
  rig.flight.on_trace_event(budget_violation(5 * kSecond, 0));
  EXPECT_EQ(rig.flight.triggers(), 2u);
  EXPECT_EQ(rig.flight.deduped(), 1u);
}

TEST(FlightRecorder, CapEmitsIncidentTruncatedTrailer) {
  Rig rig;
  // Three triggers past the cap, one slot apart so none is deduped.
  const int triggers = static_cast<int>(kMaxIncidents) + 3;
  for (int s = 0; s < triggers; ++s) {
    rig.flight.on_trace_event(breaker_trip(s * kSecond));
  }
  EXPECT_EQ(rig.flight.incident_count(), kMaxIncidents);
  EXPECT_EQ(rig.flight.triggers(), static_cast<std::uint64_t>(triggers));
  EXPECT_EQ(rig.flight.dropped(), 3u);
  std::ostringstream out;
  rig.flight.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"IncidentTruncated\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cap\": 8"), std::string::npos);
}

TEST(FlightRecorder, ManualDumpAndAuditTriggersCapture) {
  Rig rig;
  rig.flight.dump_now(7 * kSecond, "operator");
  rig.flight.on_audit_failure(9 * kSecond, "battery_soc",
                              "soc below floor");
  EXPECT_EQ(rig.flight.incident_count(), 2u);
  std::ostringstream out;
  rig.flight.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ManualDump\""), std::string::npos);
  EXPECT_NE(json.find("\"AuditFailure\""), std::string::npos);
  EXPECT_NE(json.find("battery_soc: soc below floor"),
            std::string::npos);
}

TEST(FlightRecorder, BundleEnvelopeCarriesRunContext) {
  Rig rig;
  rig.flight.on_trace_event(breaker_trip(3 * kSecond));
  std::ostringstream out;
  rig.flight.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dope_incident_bundle\": 1"), std::string::npos);
  // Seed serialized as a string so >2^53 seeds survive JSON readers.
  EXPECT_NE(json.find("\"seed\": \"42\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\": \"none\""), std::string::npos);
  EXPECT_NE(json.find("\"trigger\": \"BreakerTrip\""),
            std::string::npos);
  EXPECT_NE(json.find("utility_w=700"), std::string::npos);
}

// ------------------------------------------------ end-to-end bundle

scenario::ScenarioConfig breaker_trip_scenario() {
  scenario::ScenarioConfig config;
  // Undefended on purpose: Anti-DOPE caps the draw below any sane
  // breaker rating, which is the paper's point — the trip only happens
  // when nothing defends.
  config.scheme = scenario::SchemeKind::kNone;
  config.budget = power::BudgetLevel::kLow;
  config.num_servers = 4;
  config.normal_rps = 100.0;
  config.attack_rps = 400.0;
  config.duration = 60 * kSecond;
  config.seed = 42;
  power::BreakerSpec breaker;
  breaker.rated = Watts{300.0};
  config.breaker = breaker;
  return config;
}

Hub make_flight_hub() {
  HubConfig config;
  config.enable_spans = true;
  config.enable_timeseries = true;
  config.enable_flight = true;
  return Hub(config);
}

/// Extracts the first `"key": <integer>` occurrence after `from`.
std::int64_t find_int(const std::string& json, const std::string& key,
                      std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle, from);
  if (pos == std::string::npos) {
    throw std::runtime_error("key not found: " + key);
  }
  return std::stoll(json.substr(pos + needle.size()));
}

TEST(FlightScenario, BreakerTripYieldsSchemaValidBundle) {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  config.default_alert_rules = false;  // isolate the breaker trigger
  scenario::run_scenario(config);

  ASSERT_NE(hub.flight(), nullptr);
  ASSERT_GE(hub.flight()->incident_count(), 1u);
  std::ostringstream out;
  hub.flight()->write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dope_incident_bundle\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"trigger\": \"BreakerTrip\""),
            std::string::npos);
  // The triggering slot's samples are already in the snapshot: the
  // incident's slot_index appears in the demand series raw ring.
  const std::int64_t slot_index = find_int(json, "slot_index");
  EXPECT_GT(slot_index, 0);
  EXPECT_NE(json.find("\"cluster.slot_demand_w\""), std::string::npos);
  EXPECT_NE(json.find("\"breaker.heat\""), std::string::npos);
}

TEST(FlightScenario, PowerSeriesReconcilesWithEnergyAccount) {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);

  ASSERT_NE(hub.timeseries(), nullptr);
  const Series* demand = hub.timeseries()->find("cluster.slot_demand_w");
  const Series* energy = hub.timeseries()->find("cluster.load_energy_j");
  ASSERT_NE(demand, nullptr);
  ASSERT_NE(energy, nullptr);
  // Σ(per-slot demand) × slot must reconcile with both the cumulative
  // energy series and the scenario's own energy account.
  const double slot_s = to_seconds(config.slot);
  const double from_series = demand->total_sum() * slot_s;
  const double account = result.energy.load_total().value();
  ASSERT_GT(account, 0.0);
  EXPECT_NEAR(from_series / account, 1.0, 1e-3);
  EXPECT_NEAR(energy->last_value() / account, 1.0, 1e-3);
}

TEST(FlightScenario, SuspectRankingMatchesForensics) {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.breaker.reset();  // only the explicit end-of-run dump captures
  config.obs = &hub;
  config.default_alert_rules = false;
  scenario::run_scenario(config);
  hub.flight()->dump_now(config.duration, "test");

  ASSERT_GE(hub.flight()->incident_count(), 1u);
  std::ostringstream out;
  hub.flight()->write_json(out);
  const std::string json = out.str();

  // Rebuild the ranking over the same span log at the same horizon; the
  // end-of-run dump's suspect list must match it exactly, in order.
  const Forensics forensics =
      Forensics::build(*hub.spans(), hub.trace(), config.duration);
  const auto top = forensics.top_by_joules(5);
  ASSERT_FALSE(top.empty());
  const auto dump_pos = json.find("\"ManualDump\"");
  ASSERT_NE(dump_pos, std::string::npos);
  const auto forensics_pos = json.find("\"forensics\"", dump_pos);
  ASSERT_NE(forensics_pos, std::string::npos);
  std::size_t cursor = forensics_pos;
  for (const SourceStats& s : top) {
    // Jump to this entry's start so every field read stays inside it.
    cursor = json.find("\"source_id\"", cursor);
    ASSERT_NE(cursor, std::string::npos);
    EXPECT_EQ(find_int(json, "source_id", cursor),
              static_cast<std::int64_t>(s.source_id));
    EXPECT_EQ(find_int(json, "requests", cursor),
              static_cast<std::int64_t>(s.requests));
    EXPECT_EQ(find_int(json, "violation_overlaps", cursor),
              static_cast<std::int64_t>(s.violation_overlaps));
    ++cursor;
  }
}

TEST(FlightScenario, AttachedRecorderDoesNotPerturbResults) {
  const auto plain = scenario::run_scenario(breaker_trip_scenario());

  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  config.default_alert_rules = true;
  const auto traced = scenario::run_scenario(config);

  EXPECT_EQ(plain.mean_ms, traced.mean_ms);
  EXPECT_EQ(plain.p99_ms, traced.p99_ms);
  EXPECT_EQ(plain.availability, traced.availability);
  EXPECT_EQ(plain.mean_power, traced.mean_power);
  EXPECT_EQ(plain.peak_power, traced.peak_power);
  EXPECT_EQ(plain.energy.utility, traced.energy.utility);
  EXPECT_EQ(plain.energy.battery, traced.energy.battery);
  EXPECT_EQ(plain.slot_stats.violation_slots,
            traced.slot_stats.violation_slots);
}

TEST(FlightScenario, CapturingIncidentsMatchesAHandBuiltHub) {
  // run_capturing_incidents is the one recipe behind dopesweep
  // --incidents-out and dopefuzz's .incident.json: it must equal a
  // flight hub with default alert rules and the run label, attached by
  // hand, in both the bundle bytes and the result.
  std::string bundle;
  const auto captured = scenario::run_capturing_incidents(
      breaker_trip_scenario(), "cell-3", bundle);

  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  config.default_alert_rules = true;
  config.run_label = "cell-3";
  const auto traced = scenario::run_scenario(config);
  std::ostringstream out;
  hub.flight()->write_json(out);

  EXPECT_EQ(bundle, out.str());
  EXPECT_NE(bundle.find("cell-3"), std::string::npos);
  EXPECT_EQ(captured.mean_ms, traced.mean_ms);
  EXPECT_EQ(captured.peak_power, traced.peak_power);
  EXPECT_EQ(captured.energy.utility, traced.energy.utility);
}

// ------------------------------------------------ post-mortem render

std::string scenario_bundle() {
  std::string bundle;
  scenario::run_capturing_incidents(breaker_trip_scenario(), "", bundle);
  return bundle;
}

TEST(Report, MarkdownRendersTimelineAndSloBurn) {
  const std::string bundle = scenario_bundle();
  std::ostringstream out;
  write_postmortem_markdown(out, bundle);
  const std::string md = out.str();
  EXPECT_NE(md.find("# DOPE incident post-mortem"), std::string::npos);
  EXPECT_NE(md.find("## SLO"), std::string::npos);
  EXPECT_NE(md.find("### Timeline"), std::string::npos);
  EXPECT_NE(md.find("### Pre-trigger signals"), std::string::npos);
  EXPECT_NE(md.find("### Attack attribution"), std::string::npos);
  EXPECT_NE(md.find("cluster.slot_demand_w"), std::string::npos);
  // Rendering is pure: same bundle, same bytes.
  std::ostringstream again;
  write_postmortem_markdown(again, bundle);
  EXPECT_EQ(md, again.str());
}

TEST(Report, JsonDigestRenders) {
  const std::string bundle = scenario_bundle();
  std::ostringstream out;
  write_postmortem_json(out, bundle);
  const std::string digest = out.str();
  EXPECT_NE(digest.find("\"dope_postmortem\""), std::string::npos);
  EXPECT_NE(digest.find("\"incidents\""), std::string::npos);
}

TEST(Report, MalformedBundleThrows) {
  std::ostringstream out;
  EXPECT_THROW(write_postmortem_markdown(out, "not json"),
               std::runtime_error);
  EXPECT_THROW(write_postmortem_json(out, "{\"wrong\": 1}"),
               std::runtime_error);
}

}  // namespace
}  // namespace dope::obs
