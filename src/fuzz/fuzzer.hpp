// Fuzz campaign runner: N cases sharded on a thread pool.
//
// A campaign maps `(campaign_seed, index)` to one case seed per index
// (splitmix64 stream — see `ScenarioSampler::derive_case_seed`), judges
// every sampled case with the differential oracle, and greedily shrinks
// each failure to its minimal reproduction. Workers write into
// per-index slots, so the merged `CampaignResult` — and everything
// printed or serialised from it — is byte-identical for any thread
// count; only wall-clock telemetry varies between runs.
//
// Progress is observable through the same instruments the sweep runner
// uses:
//   fuzz.cases_total       counter — campaign size, set before sharding
//   fuzz.cases_completed   counter — incremented as cases finish
//   fuzz.cases_failed      counter — cases with oracle violations
//   fuzz.shrink_steps      counter — accepted shrink reductions
// plus an optional `obs::LiveTap` publishing a snapshot per finished
// case for a CLI progress drainer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/shrink.hpp"
#include "obs/hub.hpp"
#include "obs/live.hpp"

namespace dope::fuzz {

struct CampaignOptions {
  std::uint64_t campaign_seed = 1;
  std::size_t cases = 100;
  /// Worker threads; 0 selects the hardware concurrency.
  std::size_t threads = 0;
  OracleOptions oracle;
  /// Shrink failing cases before reporting them.
  bool shrink_failures = true;
  /// Optional progress hub (see file comment). Caller owns.
  obs::Hub* obs = nullptr;
  /// Optional live telemetry tap: one snapshot per finished case, read
  /// by a drainer thread. Caller owns.
  obs::LiveTap* live = nullptr;
};

/// One judged case, failure or not.
struct CaseRecord {
  std::size_t index = 0;
  std::uint64_t case_seed = 0;
  std::string label;
  OracleReport report;
};

/// One failing case, with its minimized form when shrinking ran.
struct Failure {
  std::size_t index = 0;
  FuzzCase original;
  OracleReport report;
  FuzzCase minimized;            // == original when shrinking is off
  OracleReport minimized_report;  // ditto
  std::size_t shrink_steps = 0;
  std::size_t shrink_attempts = 0;
};

struct CampaignResult {
  std::uint64_t campaign_seed = 0;
  /// All judged cases, in case-index order.
  std::vector<CaseRecord> cases;
  /// Failing cases only, in case-index order.
  std::vector<Failure> failures;
  /// Scenario executions across the whole campaign (oracle + shrink).
  std::size_t total_runs = 0;

  bool ok() const { return failures.empty(); }
};

/// Runs one campaign. Deterministic up to thread count (see file
/// comment).
CampaignResult run_campaign(const CampaignOptions& options);

/// One line per failure: check ids, scheme, label, repro command.
void print_failures(std::ostream& out, const CampaignResult& result);

/// Machine-readable campaign summary (counts, per-failure checks and
/// seeds); small enough to paste into a bug report.
void write_campaign_json(std::ostream& out, const CampaignResult& result);

}  // namespace dope::fuzz
