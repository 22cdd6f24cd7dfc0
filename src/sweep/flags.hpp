// Scenario flags: the one command-line reader for a base scenario.
//
// `dopesim_cli` runs the scenario these flags describe; `dopesweep`
// uses it as the base of its grid (an axis overrides the field it
// names). Both start from `default_scenario()`, read their flags
// through one `cli::ArgCursor`, and print `kScenarioFlagsHelp` — so a
// flag means the same thing, with the same grammar, in either tool.
#pragma once

#include "common/argv.hpp"
#include "scenario/scenario.hpp"

namespace dope::sweep {

/// The documented defaults: Anti-DOPE at the Low-PB budget, 300 rps
/// normal traffic plus a 400 rps heavy-blend DOPE flood, the paper's
/// 10-minute window, seed 42.
scenario::ScenarioConfig default_scenario();

/// Help text for every flag `read_scenario_flag` accepts.
extern const char* const kScenarioFlagsHelp;

/// When the cursor's current flag is a scenario flag, consumes its value
/// into `config` and returns true; otherwise consumes nothing and
/// returns false. Throws std::invalid_argument on a bad value.
bool read_scenario_flag(cli::ArgCursor& args,
                        scenario::ScenarioConfig& config);

/// Checks that span several flags, run after the last one: the attack
/// zone must lie in [-1, --zones). Throws std::invalid_argument.
void check_scenario_flags(const scenario::ScenarioConfig& config);

}  // namespace dope::sweep
