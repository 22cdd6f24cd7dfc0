// Differential oracle for sampled scenarios.
//
// A fuzzer is only as strong as its notion of "wrong". Each sampled case
// is executed under at least two schemes — the uncapped `kNone` reference
// plus the case's scheme under test — and judged three ways:
//
//   1. Physics invariants: the runtime audit checks of
//      `common/audit.hpp`, captured per-run through an
//      `audit::ScopedCollector` (hard-fail mode), plus result-level
//      conservation/sanity laws (energy books balance, power within
//      [0, nameplate], percentiles ordered, SoC in range, slot stats
//      consistent).
//   2. Scheme-relative properties: capped schemes must hold the utility
//      feed inside the *independently computed* budget envelope
//      (`expected_budget`, never the cluster's own figure), no scheme
//      may consume wildly more energy than the uncapped reference, and
//      the cluster's reported budget must match the provisioning math.
//   3. Determinism: the scheme run repeated from scratch must reproduce
//      its headline metrics bit-for-bit — the same-process hidden-state
//      check, applied to every sampled corner of the domain.
//
// A violation names a stable check id, the offending scheme, and a
// human-readable detail line; the shrinker reproduces failures by check
// id. Oracles never mutate shared state, so cases can be judged on many
// threads at once.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fuzz/domain.hpp"

namespace dope::fuzz {

/// One oracle finding for one case.
struct OracleViolation {
  /// Stable check id ("budget_envelope", "energy_conservation",
  /// "audit.battery_soc", "nondeterminism", "exception", ...).
  std::string check;
  /// Scheme of the offending run ("None", "Capping", "Anti-DOPE", ...).
  std::string scheme;
  std::string detail;
};

struct OracleOptions {
  /// Re-run the scheme under test and demand bit-identical headline
  /// metrics (catches hidden global/static state).
  bool check_determinism = true;
  /// Test-only bug-injection hook: mutates the materialized config of
  /// every *scheme-under-test* run (never the `kNone` reference) just
  /// before execution. This is how the test suite proves the oracle
  /// catches a deliberately relaxed cap.
  std::function<void(scenario::ScenarioConfig&)> mutate;
};

/// Everything the oracle concluded about one case.
struct OracleReport {
  std::vector<OracleViolation> violations;
  /// Scenario executions performed (reference + scheme + reruns).
  std::size_t runs = 0;

  bool ok() const { return violations.empty(); }
  bool has_check(const std::string& check) const;
  /// "budget_envelope[Capping]; nondeterminism[Token]" — for logs.
  std::string summary() const;
};

/// Judges one sampled case. Deterministic and thread-safe.
OracleReport run_oracle(const FuzzCase& fuzz_case,
                        const OracleOptions& options = {});

}  // namespace dope::fuzz
