// Differentiated Power Management (paper Algorithm 1, Eq. 1).
//
// Algorithm 1 searches a *throttling list* TL(p, q) — a per-node choice
// of V/F operating points — such that the summed request power fits the
// available budget: Σ qᵢ·Pᵢ(f) ≤ B₀. `solve_throttling` is that search
// over one set of nodes: from the nodes' current levels it greedily
// takes the single-step reduction with the best power-saved-per-hertz-
// lost ratio until the estimate fits (or every node reaches the ladder
// floor). With monotone per-node power curves this greedy is near
// optimal for this class of separable knapsack problems — dpm_test
// bounds its gap against exhaustive enumeration — and, unlike an exact
// DP, runs comfortably inside a 1-second management slot.
//
// `PooledDpm` is the slot loop around it, shared by every isolating
// scheme: ordered server pools, throttled first-to-last on a deficit
// (continuing into the last, protected pool *is* Algorithm 1's last
// resort), restored last-to-first one step per slot on headroom, with
// the battery bridging deficits and recharging from what is left.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "power/dvfs.hpp"
#include "server/node.hpp"

namespace dope::obs {
class Hub;
}  // namespace dope::obs

namespace dope::antidope {

/// Per-node level assignment (indexed like the input node vector).
using ThrottleAssignment = std::vector<power::DvfsLevel>;

/// Lowers `start` one greedy step at a time until the estimated power of
/// `nodes` fits `allowance`; returns ladder-floor levels where even full
/// throttling cannot fit. Never raises a level. Estimates use each
/// node's *current* active set. `iterations`, when non-null, is
/// incremented once per step-down taken.
ThrottleAssignment solve_throttling(
    const std::vector<server::ServerNode*>& nodes,
    const power::DvfsLadder& ladder, Watts allowance,
    ThrottleAssignment start, std::uint64_t* iterations = nullptr);

/// Estimated total power of an assignment.
Watts assignment_power(const std::vector<server::ServerNode*>& nodes,
                       const ThrottleAssignment& assignment);

/// Sum of assigned frequencies (the performance objective).
GHz assignment_frequency(const power::DvfsLadder& ladder,
                         const ThrottleAssignment& assignment);

/// What one management slot did.
struct DpmSlot {
  /// Demand minus budget; positive on a throttle slot.
  Watts deficit{0.0};
  /// Watts the battery delivered (throttle slots only).
  Watts battery{0.0};
  /// Greedy step-downs taken across every pool.
  std::uint64_t tl_iterations = 0;
  /// Nodes below the ladder top after the slot.
  std::size_t throttled_nodes = 0;
  /// Estimated cluster power at the levels the slot settled on.
  Watts projected{0.0};
};

/// Algorithm 1 over ordered server pools (see the file comment).
class PooledDpm {
 public:
  /// `pools` in throttle order: a deficit takes from `pools[0]` first and
  /// from the last, protected pool only as a last resort. Every node
  /// starts at the ladder top. `ladder` must outlive this object; `hub`
  /// (nullable) receives audit reports.
  PooledDpm(std::vector<std::vector<server::ServerNode*>> pools,
            const power::DvfsLadder& ladder, obs::Hub* hub = nullptr);

  /// One management slot at `now`. A deficit (demand above budget)
  /// cascades the TL(p,q) solve through the pools until the projected
  /// total fits, and the battery (nullable) discharges the deficit.
  /// Headroom lifts the first not-at-max pool, protected pool first, by
  /// one step at its lowest nodes if the result keeps
  /// `schemes::kRaiseHeadroom` of the budget free, then recharges the
  /// battery with what is left.
  DpmSlot on_slot(Time now, Duration slot, Watts budget, Watts demand,
                  battery::Battery* battery);
  /// The slot for `cluster`'s budget, demand and battery.
  DpmSlot on_slot(Time now, Duration slot, cluster::Cluster& cluster) {
    return on_slot(now, slot, cluster.power().budget(),
                   cluster.data().total_power(), cluster.power().battery());
  }

  /// Lowest level in pool `p` (its throttle depth).
  power::DvfsLevel level(std::size_t p) const;
  /// Per-node levels of pool `p`.
  const ThrottleAssignment& levels(std::size_t p) const {
    return pools_.at(p).levels;
  }

 private:
  struct Pool {
    std::vector<server::ServerNode*> nodes;
    ThrottleAssignment levels;
  };

  Watts power() const;
  void throttle(Time now, Watts budget, DpmSlot& out);
  /// The projected total after a lift; nullopt when nothing was lifted.
  std::optional<Watts> restore(Watts budget);

  std::vector<Pool> pools_;
  const power::DvfsLadder* ladder_;
  obs::Hub* hub_;
};

}  // namespace dope::antidope
