// Offline power profiling of request types.
//
// The paper's operators build the suspect list by characterising, offline,
// how much power each service URL draws per request. We reproduce that
// measurement campaign in-simulator: for every catalog type, drive a
// single isolated node with a steady stream of that type and attribute the
// measured energy above idle to the average number of in-flight requests.
// The result is a *measured* per-request power (within sampling noise of
// the model's ground truth), so the whole Anti-DOPE pipeline runs on
// observations rather than on privileged model internals.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "power/dvfs.hpp"
#include "power/power_model.hpp"
#include "server/node.hpp"
#include "workload/catalog.hpp"

namespace dope::antidope {

/// Measurement outcome for one request type.
struct TypeProfile {
  workload::RequestTypeId type = 0;
  /// Measured active power per in-flight request (watts).
  Watts per_request_power{0.0};
  /// Measured node power when saturated with this type (watts).
  Watts saturated_node_power{0.0};
  /// Mean unloaded service latency at f_max (milliseconds).
  double base_latency_ms = 0.0;
  /// Request rate (rps) at which a single node saturates.
  double saturation_rps = 0.0;
};

/// Profiling campaign parameters. Each type is measured twice: a
/// *probe* phase at 0.4x the node's saturation rate (so the nameplate
/// clamp never distorts the per-request attribution) and an *overload*
/// phase at 1.5x that records the saturated node power.
struct ProfilerConfig {
  /// How long to load each type in each phase (simulated time).
  Duration duration = 30 * kSecond;
  std::uint64_t seed = 1234;
};

/// Profiles every type in `catalog` on a node with the given spec/ladder.
std::vector<TypeProfile> profile_catalog(const workload::Catalog& catalog,
                                         const power::ServerPowerSpec& spec,
                                         const power::DvfsLadder& ladder,
                                         const ProfilerConfig& config = {});

/// Extracts the per-request power column (indexed by type id).
std::vector<Watts> per_request_powers(
    const std::vector<TypeProfile>& profiles);

}  // namespace dope::antidope
