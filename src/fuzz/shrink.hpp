// Seed-exact greedy shrinking of failing fuzz cases.
//
// A freshly sampled failure is rarely a good bug report: 90 seconds of
// five-way mixture traffic against twelve servers with two outages
// obscures whichever two knobs actually matter. The shrinker runs a
// fixed catalogue of semantic reduction passes — halve the duration,
// drop servers, zero the attack, strip chaos/rate plans/infrastructure,
// simplify mixtures — and keeps a candidate only when the oracle still
// reports one of the *original* check ids (same-bug criterion, so
// shrinking never walks to a different failure). Passes repeat to a
// fixpoint under a hard attempt budget; every accepted step makes the
// case strictly simpler, so termination is structural, not statistical.
//
// The result is deterministic: same failing case, same oracle options,
// same minimized case — shrink logs are therefore reproducible too.
#pragma once

#include <cstddef>

#include "fuzz/oracle.hpp"

namespace dope::fuzz {

struct ShrinkOptions {
  /// Oracle configuration, forwarded to every candidate re-judgement
  /// (including any test-only `mutate` bug injection — the shrunk case
  /// must fail for the same reason the original did).
  OracleOptions oracle;
};

struct ShrinkResult {
  /// The simplest case found that still violates one original check.
  FuzzCase minimized;
  /// Oracle report of `minimized` (never empty — shrinking starts from
  /// a failure and only accepts failing candidates).
  OracleReport report;
  /// Accepted reduction steps (0 when the case was already minimal).
  std::size_t steps = 0;
  /// Candidate oracle executions spent.
  std::size_t attempts = 0;
  /// Scenario runs spent across all candidates (for run accounting).
  std::size_t total_runs = 0;
};

/// Minimizes `failing`, whose `original` report must be non-ok.
/// Throws std::invalid_argument when `original.ok()`.
ShrinkResult shrink(const FuzzCase& failing, const OracleReport& original,
                    const ShrinkOptions& options = {});

}  // namespace dope::fuzz
