// Shared helpers for power-scheme implementations.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "power/dvfs.hpp"
#include "server/node.hpp"

namespace dope::schemes {

/// Fraction of the budget that must stay free before a scheme raises a
/// frequency by one step (hysteresis against oscillation). Capping,
/// Shaving and both Anti-DOPE variants use it.
inline constexpr double kRaiseHeadroom = 0.02;

/// Estimated aggregate power if every server in `nodes` ran at `level`
/// with its *current* active request set.
Watts estimate_power_at_uniform(const std::vector<server::ServerNode*>& nodes,
                                power::DvfsLevel level);

/// Highest level L <= `ceiling` whose uniform estimate over `nodes` stays
/// within `allowance`; returns the ladder minimum when even that violates.
power::DvfsLevel find_uniform_level(
    const std::vector<server::ServerNode*>& nodes,
    const power::DvfsLadder& ladder, Watts allowance,
    power::DvfsLevel ceiling);

/// Requests `level` on every node (actuation latency applies per node).
void request_uniform_level(const std::vector<server::ServerNode*>& nodes,
                           power::DvfsLevel level);

}  // namespace dope::schemes
