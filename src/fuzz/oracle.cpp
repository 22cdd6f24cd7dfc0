#include "fuzz/oracle.hpp"

#include <cmath>
#include <exception>
#include <sstream>

#include "common/audit.hpp"
#include "power/power_model.hpp"

namespace dope::fuzz {

namespace {

/// Relative slack on the utility-energy budget envelope (covers sub-slot
/// reaction transients).
constexpr double kBudgetEnvelopeSlack = 0.10;
/// A managed scheme may consume at most this multiple of the uncapped
/// reference's load energy (DVFS throttling inflates per-request energy
/// for frequency-insensitive types, so the bound is loose — it exists to
/// catch double-counting, not to be tight).
constexpr double kAdmittedEnergyMultiple = 1.6;

/// a <= b with mixed absolute/relative slack at magnitude `scale`.
bool loosely_le(double a, double b, double scale) {
  return a <= b + 1e-6 + 1e-9 * std::abs(scale);
}

struct RunOutcome {
  scenario::ScenarioResult result;
  std::vector<audit::Violation> audit_violations;
  std::string error;  // non-empty when the run threw
  bool ok = false;
};

RunOutcome execute(const scenario::ScenarioConfig& config) {
  RunOutcome outcome;
  audit::ScopedCollector collector;
  try {
    outcome.result = scenario::run_scenario(config);
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  } catch (...) {
    outcome.error = "unknown exception";
  }
  outcome.audit_violations = collector.violations();
  return outcome;
}

class Judge {
 public:
  Judge(const FuzzCase& fuzz_case, OracleReport& report)
      : fuzz_case_(fuzz_case), report_(report) {}

  void flag(const std::string& check, const std::string& scheme,
            const std::string& detail) {
    report_.violations.push_back({check, scheme, detail});
  }

  /// Result-level invariants that must hold for every run of every
  /// scheme, plus whatever the runtime audit collector caught.
  void check_run(const RunOutcome& run,
                 const scenario::ScenarioConfig& config) {
    const std::string& scheme =
        run.ok ? run.result.scheme : scenario::scheme_name(config.scheme);
    for (const auto& violation : run.audit_violations) {
      flag("audit." + violation.check, scheme, violation.message);
    }
    if (!run.ok) {
      flag("exception", scheme, run.error);
      return;
    }
    const scenario::ScenarioResult& r = run.result;
    std::ostringstream detail;

    // Energy books must balance: load == utility + battery.
    const Joules load = r.energy.load_total();
    const double scale = std::max(1.0, load.value());
    if (abs(load - (r.energy.utility + r.energy.battery)) >
            Joules{1e-6 * scale} ||
        r.energy.utility < Joules{-1e-9} ||
        r.energy.battery < Joules{-1e-9} ||
        r.energy.recharge < Joules{-1e-9}) {
      detail << "load=" << load.value()
             << " J, utility=" << r.energy.utility.value()
             << " J, battery=" << r.energy.battery.value()
             << " J, recharge=" << r.energy.recharge.value() << " J";
      flag("energy_conservation", scheme, detail.str());
      return;
    }

    // Sampled power timeline must agree with the exact energy integral.
    const Watts from_energy = load / config.duration;
    if (abs(r.mean_power - from_energy) >
        0.12 * std::max(Watts{20.0}, from_energy)) {
      detail << "sampled mean " << r.mean_power.value()
             << " W vs integral " << from_energy.value() << " W";
      flag("power_integral", scheme, detail.str());
    }

    // Power stays inside [0, aggregate nameplate] (site-wide: every
    // zone's fleet counts).
    const Watts nameplate =
        power::ServerPowerSpec{}.nameplate *
        static_cast<double>(config.num_servers) *
        static_cast<double>(config.num_zones);
    if (r.peak_power > nameplate + Watts{1e-6}) {
      detail << "peak " << r.peak_power.value() << " W above nameplate "
             << nameplate.value() << " W";
      flag("nameplate_exceeded", scheme, detail.str());
    }
    for (const auto& sample : r.power_timeline) {
      if (sample.value < -1e-9 ||
          sample.value > nameplate.value() + 1e-6) {
        detail << "power sample " << sample.value << " W at t="
               << to_seconds(sample.t) << " s outside [0, "
               << nameplate.value() << "] W";
        flag("nameplate_exceeded", scheme, detail.str());
        break;
      }
    }

    // The cluster's reported budget must match the provisioning math —
    // computed here from the *case*, not from the code under test.
    const Watts budget = expected_budget(fuzz_case_.config);
    if (abs(r.budget - budget) > 1e-6 * std::max(Watts{1.0}, budget)) {
      detail << "cluster reports " << r.budget.value()
             << " W, provisioning math " << "says " << budget.value()
             << " W";
      flag("budget_mismatch", scheme, detail.str());
    }

    // Latency percentiles are ordered and non-negative.
    const double percentiles[] = {r.min_ms, r.p50_ms, r.p90_ms,
                                  r.p95_ms,  r.p99_ms, r.max_ms};
    bool ordered = r.min_ms >= -1e-9;
    for (std::size_t i = 1; i < 6; ++i) {
      ordered = ordered && percentiles[i] >= percentiles[i - 1] - 1e-9;
    }
    if (!ordered) {
      detail << "min/p50/p90/p95/p99/max = " << r.min_ms << "/" << r.p50_ms
             << "/" << r.p90_ms << "/" << r.p95_ms << "/" << r.p99_ms
             << "/" << r.max_ms;
      flag("latency_ordering", scheme, detail.str());
    }

    // Ratios live in [0, 1].
    if (r.availability < -1e-9 || r.availability > 1.0 + 1e-9 ||
        r.drop_fraction < -1e-9 || r.drop_fraction > 1.0 + 1e-9) {
      detail << "availability=" << r.availability
             << ", drop_fraction=" << r.drop_fraction;
      flag("ratio_range", scheme, detail.str());
    }

    // Battery: SoC within [0, 1], discharge non-negative, and no
    // battery activity at all when the case has no battery.
    for (const auto& sample : r.battery_soc_timeline) {
      if (sample.value < -1e-9 || sample.value > 1.0 + 1e-9) {
        detail << "SoC " << sample.value << " at t="
               << to_seconds(sample.t) << " s";
        flag("soc_range", scheme, detail.str());
        break;
      }
    }
    if (r.battery_discharged < Joules{-1e-9} ||
        (config.battery_runtime == 0 &&
         (r.battery_discharged > Joules{1e-9} ||
          r.energy.battery > Joules{1e-9}))) {
      detail << "discharged " << r.battery_discharged.value()
             << " J with battery_runtime="
             << to_seconds(config.battery_runtime) << " s";
      flag("battery_accounting", scheme, detail.str());
    }

    // Slot statistics are internally consistent. (No ordering between
    // utility and demand violations: battery recharge rides on the
    // utility feed, so a recharging slot can breach on the utility side
    // alone.) Site-level downtime is summed over zones, so it is bounded
    // by the run's zone-time.
    const auto& slots = r.slot_stats;
    const Duration zone_time =
        config.duration * static_cast<Duration>(config.num_zones);
    if (slots.violation_slots > slots.slots ||
        slots.utility_violation_slots > slots.slots ||
        slots.worst_overshoot < Watts{-1e-9} || slots.downtime < 0 ||
        slots.downtime > zone_time) {
      detail << "slots=" << slots.slots
             << ", violations=" << slots.violation_slots
             << ", utility violations=" << slots.utility_violation_slots
             << ", overshoot=" << slots.worst_overshoot.value()
             << " W, downtime=" << to_seconds(slots.downtime) << " s";
      flag("slot_stats", scheme, detail.str());
    }

    // No attack traffic configured -> no attack outcomes recorded.
    // dope-lint: allow(float-eq) — configured literal, not a computed value
    if (config.attack_rps == 0.0 && r.attack_counts.terminal() != 0) {
      detail << r.attack_counts.terminal()
             << " attack outcomes in an attack-free case";
      flag("phantom_attack", scheme, detail.str());
    }

    // Multi-zone runs: the per-zone breakdown must be present, every
    // zone's slice sane, and the site-level books must equal the sum of
    // the zones' books (energy cannot appear or vanish between layers).
    if (config.num_zones > 1) {
      if (r.zones.size() != config.num_zones) {
        detail << r.zones.size() << " zone breakdowns for "
               << config.num_zones << " zones";
        flag("zone_breakdown", scheme, detail.str());
        return;
      }
      Joules zone_load{0.0};
      Watts zone_budgets{0.0};
      // Site-level slot counts are summed over zones, and all zones
      // share one slot length.
      const std::uint64_t zone_slots = r.slot_stats.slots / config.num_zones;
      for (std::size_t z = 0; z < r.zones.size(); ++z) {
        const auto& zone = r.zones[z];
        zone_load += zone.load_energy;
        zone_budgets += zone.budget;
        if (zone.availability < -1e-9 ||
            zone.availability > 1.0 + 1e-9 ||
            zone.load_energy < Joules{-1e-9} ||
            zone.budget < site::kMinZoneBudget - Watts{1e-9} ||
            zone.violation_slots > zone_slots) {
          detail << "zone " << z << ": availability="
                 << zone.availability << ", load="
                 << zone.load_energy.value() << " J, budget="
                 << zone.budget.value() << " W, violations="
                 << zone.violation_slots;
          flag("zone_range", scheme, detail.str());
          break;
        }
      }
      // Site-level energy conservation: zones sum to the site books.
      const double site_scale = std::max(1.0, load.value());
      if (abs(zone_load - load) > Joules{1e-6 * site_scale}) {
        detail << "zone load sum " << zone_load.value()
               << " J vs site load " << load.value() << " J";
        flag("site_energy_conservation", scheme, detail.str());
      }
      // The divider hands out the whole facility budget (floors may
      // push the sum slightly above it, never below).
      const Watts facility = expected_budget(config);
      if (zone_budgets < facility - Watts{1e-6} ||
          zone_budgets > facility +
                             site::kMinZoneBudget *
                                 static_cast<double>(config.num_zones)) {
        detail << "zone budget sum " << zone_budgets.value()
               << " W vs facility " << facility.value() << " W";
        flag("zone_budget_sum", scheme, detail.str());
      }
    }
  }

  /// Properties of the scheme run relative to the uncapped reference.
  void check_differential(const RunOutcome& reference,
                          const RunOutcome& scheme_run,
                          const scenario::ScenarioConfig& scheme_config) {
    if (!reference.ok || !scheme_run.ok) return;
    const auto& r = scheme_run.result;
    const std::string& scheme = r.scheme;
    const double seconds = to_seconds(scheme_config.duration);
    std::ostringstream detail;

    // Capped schemes must hold the utility feed inside the budget
    // envelope over the whole run (slack covers sub-slot transients).
    const bool budgeted =
        fuzz_case_.scheme == scenario::SchemeKind::kCapping ||
        fuzz_case_.scheme == scenario::SchemeKind::kToken ||
        fuzz_case_.scheme == scenario::SchemeKind::kAntiDope;
    if (budgeted) {
      const Joules envelope =
          expected_budget(fuzz_case_.config) * scheme_config.duration *
          (1.0 + kBudgetEnvelopeSlack);
      if (!loosely_le(r.energy.utility_total().value(),
                      envelope.value() + 1.0, envelope.value())) {
        detail << "utility energy " << r.energy.utility_total().value()
               << " J above envelope " << envelope.value() << " J ("
               << expected_budget(fuzz_case_.config).value()
               << " W budget over " << seconds << " s + "
               << kBudgetEnvelopeSlack * 100.0 << "% slack)";
        flag("budget_envelope", scheme, detail.str());
      }
    }

    // Schemes throttle and deny; they must not conjure energy. The
    // bound is a loose multiple (kAdmittedEnergyMultiple) and only applies
    // without a breaker: a reference run that trips dark consumes
    // arbitrarily little.
    if (!scheme_config.breaker.has_value()) {
      const Joules limit =
          reference.result.energy.load_total() *
              kAdmittedEnergyMultiple +
          Joules{1.0};
      if (!loosely_le(r.energy.load_total().value(), limit.value(),
                      limit.value())) {
        detail << "load energy " << r.energy.load_total().value()
               << " J vs uncapped reference "
               << reference.result.energy.load_total().value() << " J (x"
               << kAdmittedEnergyMultiple << " allowed)";
        flag("admitted_energy", scheme, detail.str());
      }

      // Per-zone differential: the same bound zone by zone. A scheme
      // that respects the site total while conjuring energy inside one
      // zone (and hiding it in another) fails here, not above. Skipped
      // under the least-loaded GLB: its routing feeds back on service
      // latency, so a scheme legitimately shifts traffic between zones
      // relative to the uncapped reference.
      if (scheme_config.glb_policy != site::GlobalLbPolicy::kLeastLoaded &&
          r.zones.size() == reference.result.zones.size()) {
        for (std::size_t z = 0; z < r.zones.size(); ++z) {
          const Joules zone_limit =
              reference.result.zones[z].load_energy *
                  kAdmittedEnergyMultiple +
              Joules{1.0};
          if (!loosely_le(r.zones[z].load_energy.value(),
                          zone_limit.value(), zone_limit.value())) {
            detail << "zone " << z << " load "
                   << r.zones[z].load_energy.value()
                   << " J vs uncapped reference "
                   << reference.result.zones[z].load_energy.value()
                   << " J (x" << kAdmittedEnergyMultiple
                   << " allowed)";
            flag("zone_admitted_energy", scheme, detail.str());
            break;
          }
        }
      }
    }
  }

  /// Bit-exact repeatability of the scheme run.
  void check_determinism(const RunOutcome& first,
                         const RunOutcome& second) {
    if (!first.ok || !second.ok) {
      if (first.ok != second.ok || first.error != second.error) {
        flag("nondeterminism", scenario::scheme_name(fuzz_case_.scheme),
             "rerun did not reproduce the run outcome");
      }
      return;
    }
    const auto& a = first.result;
    const auto& b = second.result;
    std::ostringstream detail;
    // Exact equality is the contract here: a determinism oracle that
    // tolerates drift is no oracle at all.
    bool same = a.mean_ms == b.mean_ms && a.p99_ms == b.p99_ms;
    // dope-lint: allow(float-eq) — bit-exact determinism contract
    same = same && a.mean_power == b.mean_power;
    // dope-lint: allow(float-eq) — bit-exact determinism contract
    same = same && a.peak_power == b.peak_power;
    // dope-lint: allow(float-eq) — bit-exact determinism contract
    same = same && a.energy.utility == b.energy.utility;
    // dope-lint: allow(float-eq) — bit-exact determinism contract
    same = same && a.energy.battery == b.energy.battery;
    same = same && a.battery_discharged == b.battery_discharged;
    same = same && a.normal_counts.terminal() == b.normal_counts.terminal();
    same = same && a.attack_counts.terminal() == b.attack_counts.terminal();
    same = same &&
           a.slot_stats.violation_slots == b.slot_stats.violation_slots;
    same = same && a.slot_stats.outages == b.slot_stats.outages;
    same = same && a.zones.size() == b.zones.size();
    for (std::size_t z = 0; same && z < a.zones.size(); ++z) {
      // dope-lint: allow(float-eq) — bit-exact determinism contract
      same = same && a.zones[z].load_energy == b.zones[z].load_energy;
      // dope-lint: allow(float-eq) — bit-exact determinism contract
      same = same && a.zones[z].budget == b.zones[z].budget;
      same = same &&
             a.zones[z].violation_slots == b.zones[z].violation_slots;
    }
    if (!same) {
      detail << "rerun diverged: mean_ms " << a.mean_ms << " vs "
             << b.mean_ms << ", utility " << a.energy.utility.value()
             << " vs " << b.energy.utility.value() << ", terminal "
             << a.normal_counts.terminal() << " vs "
             << b.normal_counts.terminal();
      flag("nondeterminism", a.scheme, detail.str());
    }
  }

 private:
  const FuzzCase& fuzz_case_;
  OracleReport& report_;
};

}  // namespace

bool OracleReport::has_check(const std::string& check) const {
  for (const auto& violation : violations) {
    if (violation.check == check) return true;
  }
  return false;
}

std::string OracleReport::summary() const {
  std::string out;
  for (const auto& violation : violations) {
    if (!out.empty()) out += "; ";
    out += violation.check + "[" + violation.scheme + "]";
  }
  return out;
}

OracleReport run_oracle(const FuzzCase& fuzz_case,
                        const OracleOptions& options) {
  OracleReport report;
  Judge judge(fuzz_case, report);

  // Reference: the uncapped cluster. Never mutated — it anchors the
  // differential checks.
  const auto reference_config =
      materialize(fuzz_case, scenario::SchemeKind::kNone);
  const RunOutcome reference = execute(reference_config);
  ++report.runs;
  judge.check_run(reference, reference_config);

  // Scheme under test (bug-injection hook applies here only).
  auto scheme_config = materialize(fuzz_case, fuzz_case.scheme);
  if (options.mutate) options.mutate(scheme_config);
  const RunOutcome scheme_run = execute(scheme_config);
  ++report.runs;
  judge.check_run(scheme_run, scheme_config);
  judge.check_differential(reference, scheme_run, scheme_config);

  if (options.check_determinism) {
    const RunOutcome rerun = execute(scheme_config);
    ++report.runs;
    judge.check_determinism(scheme_run, rerun);
  }
  return report;
}

}  // namespace dope::fuzz
