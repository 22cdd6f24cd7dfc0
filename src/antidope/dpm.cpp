#include "antidope/dpm.hpp"

#include <algorithm>
#include <utility>

#include "battery/battery.hpp"
#include "common/audit.hpp"
#include "common/expect.hpp"
#include "obs/hub.hpp"
#include "schemes/util.hpp"

namespace dope::antidope {

ThrottleAssignment solve_throttling(
    const std::vector<server::ServerNode*>& nodes,
    const power::DvfsLadder& ladder, Watts allowance,
    ThrottleAssignment start, std::uint64_t* iterations) {
  DOPE_REQUIRE(!nodes.empty(), "need at least one node");
  DOPE_REQUIRE(start.size() == nodes.size(), "assignment size mismatch");
  ThrottleAssignment assignment = std::move(start);
  // Cache per-node power estimates at the current assignment.
  std::vector<Watts> node_power(nodes.size());
  Watts total{0.0};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    DOPE_REQUIRE(assignment[i] < ladder.levels(), "level out of range");
    node_power[i] = nodes[i]->estimate_power_at(assignment[i]);
    total += node_power[i];
  }

  while (total > allowance) {
    // Pick the single step-down with the best watts-per-gigahertz ratio.
    using WattsPerGHz = decltype(Watts{} / GHz{});
    std::size_t best = nodes.size();
    WattsPerGHz best_ratio{-1.0};
    Watts best_saving{0.0};
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (assignment[i] == ladder.min_level()) continue;
      const auto next = assignment[i] - 1;
      const Watts saving =
          node_power[i] - nodes[i]->estimate_power_at(next);
      const GHz lost = ladder.frequency(assignment[i]) -
                       ladder.frequency(next);
      // Clamped (saturated) nodes may save ~0 W for a step; still allow
      // the move so the search cannot stall, but rank it last.
      const WattsPerGHz ratio = saving / std::max(lost, GHz{1e-9});
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = i;
        best_saving = saving;
      }
    }
    if (best == nodes.size()) break;  // everything at the floor
    assignment[best] -= 1;
    node_power[best] -= best_saving;
    total -= best_saving;
    if (iterations != nullptr) ++*iterations;
  }
  return assignment;
}

Watts assignment_power(const std::vector<server::ServerNode*>& nodes,
                       const ThrottleAssignment& assignment) {
  DOPE_REQUIRE(nodes.size() == assignment.size(),
               "assignment size mismatch");
  Watts total{0.0};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    total += nodes[i]->estimate_power_at(assignment[i]);
  }
  return total;
}

GHz assignment_frequency(const power::DvfsLadder& ladder,
                         const ThrottleAssignment& assignment) {
  GHz total{0.0};
  for (const auto level : assignment) total += ladder.frequency(level);
  return total;
}

PooledDpm::PooledDpm(std::vector<std::vector<server::ServerNode*>> pools,
                     const power::DvfsLadder& ladder, obs::Hub* hub)
    : ladder_(&ladder), hub_(hub) {
  DOPE_REQUIRE(!pools.empty(), "need at least one pool");
  for (auto& nodes : pools) {
    DOPE_REQUIRE(!nodes.empty(), "empty DPM pool");
    const std::size_t n = nodes.size();
    pools_.push_back(
        {std::move(nodes), ThrottleAssignment(n, ladder.max_level())});
  }
}

power::DvfsLevel PooledDpm::level(std::size_t p) const {
  const auto& pool = levels(p);
  return *std::min_element(pool.begin(), pool.end());
}

Watts PooledDpm::power() const {
  Watts total{0.0};
  for (const auto& pool : pools_) {
    total += assignment_power(pool.nodes, pool.levels);
  }
  return total;
}

DpmSlot PooledDpm::on_slot(Time now, Duration slot, Watts budget,
                           Watts demand, battery::Battery* battery) {
  DpmSlot out;
  out.deficit = demand - budget;
  if (out.deficit > Watts{0.0}) {
    throttle(now, budget, out);
    // The battery bridges this slot: DVFS actuation has latency and the
    // reduction only lands next slot ("transition medium").
    if (battery != nullptr) {
      out.battery = battery->discharge(out.deficit, slot);
    }
    return out;
  }
  Watts headroom = -out.deficit;
  if (const auto projected = restore(budget)) {
    headroom = std::max(Watts{0.0}, budget - *projected);
  }
  if (battery != nullptr && headroom > Watts{0.0} && !battery->full()) {
    battery->charge(headroom, slot);
  }
  return out;
}

void PooledDpm::throttle(Time now, Watts budget, DpmSlot& out) {
  std::vector<Watts> draw;
  Watts total{0.0};
  for (const auto& pool : pools_) {
    draw.push_back(assignment_power(pool.nodes, pool.levels));
    total += draw.back();
  }
  // Each pool may use what the others leave at their current levels;
  // moving on to the next pool is Step 2, the last resort.
  for (std::size_t p = 0; p < pools_.size() && total > budget; ++p) {
    Pool& pool = pools_[p];
    const Watts others = total - draw[p];
    auto levels = solve_throttling(pool.nodes, *ladder_,
                                   std::max(Watts{0.0}, budget - others),
                                   pool.levels, &out.tl_iterations);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (levels[i] != pool.levels[i]) {
        pool.nodes[i]->request_level(levels[i]);
      }
    }
    pool.levels = std::move(levels);
    draw[p] = assignment_power(pool.nodes, pool.levels);
    total = others + draw[p];
  }
  out.projected = total;
  bool all_at_floor = true;
  for (const auto& pool : pools_) {
    for (const auto level : pool.levels) {
      if (level < ladder_->max_level()) ++out.throttled_nodes;
      if (level != ladder_->min_level()) all_at_floor = false;
    }
  }
  if constexpr (audit::kEnabled) {
    // Eq. 1 over the whole cluster: the settled levels fit the budget
    // unless every pool already sits at the ladder floor.
    audit::check_budget_feasible(hub_, now, total, budget, all_at_floor);
  }
}

std::optional<Watts> PooledDpm::restore(Watts budget) {
  // Protected pool first; one adjustment per slot.
  for (std::size_t p = pools_.size(); p-- > 0;) {
    Pool& pool = pools_[p];
    const auto low = level(p);
    if (low == ladder_->max_level()) continue;
    // Lift only the lowest nodes, so no node ever moves down here.
    Watts projected = power();
    for (std::size_t i = 0; i < pool.nodes.size(); ++i) {
      if (pool.levels[i] != low) continue;
      projected += pool.nodes[i]->estimate_power_at(low + 1) -
                   pool.nodes[i]->estimate_power_at(low);
    }
    if (projected > budget * (1.0 - schemes::kRaiseHeadroom)) {
      return std::nullopt;
    }
    for (std::size_t i = 0; i < pool.nodes.size(); ++i) {
      if (pool.levels[i] != low) continue;
      pool.levels[i] = low + 1;
      pool.nodes[i]->request_level(low + 1);
    }
    return projected;
  }
  return std::nullopt;
}

}  // namespace dope::antidope
