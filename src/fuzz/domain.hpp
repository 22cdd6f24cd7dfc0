// Randomized-but-valid scenario sampling for the fuzzer.
//
// The paper's threat model is adversarial *search*: a DOPE attacker
// sweeps the scenario space for the traffic shape that trips breakers
// under oversubscription, so hand-picked test grids systematically
// under-explore exactly the corners an attacker would find. The
// searchable space — scheme × budget × traffic shape × topology size ×
// mid-run chaos — is fixed by constants in domain.cpp that cover the
// paper's evaluation envelope plus the chaos the paper never
// hand-tested, and `ScenarioSampler` maps a single `uint64_t` seed to
// one concrete, always-valid `FuzzCase` via the repo's deterministic
// RNG. A failing case therefore *is* its seed:
// `dopefuzz --case-seed N` rebuilds it bit-for-bit anywhere.
#pragma once

#include <cstdint>
#include <string>

#include "scenario/scenario.hpp"

namespace dope::fuzz {

/// One sampled point of the domain. `config` carries the full scenario
/// with `scheme == kNone` (the oracle's uncapped reference); the scheme
/// under test is held separately so the same case materializes under
/// any scheme.
struct FuzzCase {
  std::uint64_t case_seed = 0;
  scenario::ScenarioConfig config;
  scenario::SchemeKind scheme = scenario::SchemeKind::kAntiDope;

  /// "case-0x1234/Low-PB/Anti-DOPE/attack-420/45s" — stable label for
  /// reports and failure messages.
  std::string label() const;
};

/// Concrete scenario for one scheme run of this case. Never carries an
/// obs hub — oracle runs execute concurrently across fuzz workers.
scenario::ScenarioConfig materialize(const FuzzCase& fuzz_case,
                                     scenario::SchemeKind scheme);

/// The facility budget the *case* implies (override, else level fraction
/// × aggregate nameplate), computed independently of the cluster so the
/// oracle does not trust the code under test for its expectation.
Watts expected_budget(const scenario::ScenarioConfig& config);

/// Deterministic seed → case mapping over the fuzz domain.
class ScenarioSampler {
 public:
  /// Draws the case for `case_seed`. Same seed, same case — always.
  FuzzCase sample(std::uint64_t case_seed) const;

  /// Case seed of campaign `campaign_seed`, case `index` (splitmix64
  /// stream, so neighbouring indices are statistically independent).
  static std::uint64_t derive_case_seed(std::uint64_t campaign_seed,
                                        std::uint64_t index);
};

}  // namespace dope::fuzz
