#include "fuzz/shrink.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace dope::fuzz {

namespace {

/// Hard cap on candidate oracle executions (each candidate costs at least
/// two scenario runs).
constexpr std::size_t kMaxAttempts = 128;

/// Re-establishes cross-field validity after a reduction (events inside
/// the window, outages on existing servers). Every pass runs this, so
/// passes stay single-purpose.
void normalize(scenario::ScenarioConfig& config) {
  config.attack_start =
      std::clamp<Time>(config.attack_start, 0,
                       std::max<Time>(0, config.duration - kSecond));
  if (config.attack_stop >= 0) {
    config.attack_stop =
        std::min<Time>(config.attack_stop, config.duration);
  }
  auto trim_plan = [&](std::vector<workload::RateStep>& plan) {
    plan.erase(std::remove_if(plan.begin(), plan.end(),
                              [&](const workload::RateStep& step) {
                                return step.at >= config.duration;
                              }),
               plan.end());
  };
  trim_plan(config.normal_rate_plan);
  trim_plan(config.attack_rate_plan);
  config.node_outages.erase(
      std::remove_if(config.node_outages.begin(), config.node_outages.end(),
                     [&](const scenario::NodeOutage& outage) {
                       return outage.server >= config.num_servers ||
                              outage.at >= config.duration;
                     }),
      config.node_outages.end());
}

/// One semantic reduction. `apply` returns false when it cannot make
/// the config any simpler (pass exhausted for this case).
struct Pass {
  const char* name;
  bool (*apply)(scenario::ScenarioConfig&);
};

Duration halve_seconds(Duration d, Duration floor) {
  const std::int64_t seconds =
      std::max<std::int64_t>(static_cast<std::int64_t>(floor / kSecond),
                             static_cast<std::int64_t>(d / kSecond) / 2);
  return seconds * kSecond;
}

constexpr Pass kPasses[] = {
    {"halve-duration",
     [](scenario::ScenarioConfig& c) {
       const Duration next = halve_seconds(c.duration, 10 * kSecond);
       if (next >= c.duration) return false;
       c.duration = next;
       return true;
     }},
    {"drop-node-outages",
     [](scenario::ScenarioConfig& c) {
       if (c.node_outages.empty()) return false;
       c.node_outages.clear();
       return true;
     }},
    {"drop-rate-plans",
     [](scenario::ScenarioConfig& c) {
       if (c.normal_rate_plan.empty() && c.attack_rate_plan.empty()) {
         return false;
       }
       c.normal_rate_plan.clear();
       c.attack_rate_plan.clear();
       return true;
     }},
    {"drop-attack",
     [](scenario::ScenarioConfig& c) {
       if (c.attack_rps <= 0.0) return false;
       c.attack_rps = 0.0;
       c.attack_rate_plan.clear();
       c.attack_mixture.reset();
       c.attack_start = 0;
       c.attack_stop = -1;
       return true;
     }},
    {"drop-normal",
     [](scenario::ScenarioConfig& c) {
       if (c.normal_rps <= 0.0 && c.normal_rate_plan.empty()) return false;
       c.normal_rps = 0.0;
       c.normal_rate_plan.clear();
       return true;
     }},
    {"halve-servers",
     [](scenario::ScenarioConfig& c) {
       const std::size_t next = std::max<std::size_t>(2, c.num_servers / 2);
       if (next >= c.num_servers) return false;
       c.num_servers = next;
       return true;
     }},
    {"halve-attack-rate",
     [](scenario::ScenarioConfig& c) {
       if (c.attack_rps < 2.0) return false;
       c.attack_rps /= 2.0;
       return true;
     }},
    {"halve-normal-rate",
     [](scenario::ScenarioConfig& c) {
       if (c.normal_rps < 2.0) return false;
       c.normal_rps /= 2.0;
       return true;
     }},
    {"default-mixtures",
     [](scenario::ScenarioConfig& c) {
       if (!c.normal_mixture.has_value() && !c.attack_mixture.has_value()) {
         return false;
       }
       c.normal_mixture.reset();
       c.attack_mixture.reset();
       return true;
     }},
    {"drop-firewall",
     [](scenario::ScenarioConfig& c) {
       if (!c.firewall.has_value()) return false;
       c.firewall.reset();
       return true;
     }},
    {"drop-breaker",
     [](scenario::ScenarioConfig& c) {
       if (!c.breaker.has_value()) return false;
       c.breaker.reset();
       return true;
     }},
    {"drop-battery",
     [](scenario::ScenarioConfig& c) {
       if (c.battery_runtime <= 0) return false;
       c.battery_runtime = 0;
       return true;
     }},
    {"fewer-sources",
     [](scenario::ScenarioConfig& c) {
       bool changed = false;
       if (c.normal_sources > 16) {
         c.normal_sources = 16;
         changed = true;
       }
       if (c.attack_agents > 8) {
         c.attack_agents = 8;
         changed = true;
       }
       return changed;
     }},
};

/// Same-bug criterion: the candidate must re-trip at least one of the
/// check ids the original failure reported.
bool reproduces(const OracleReport& candidate,
                const std::vector<std::string>& original_checks) {
  for (const auto& check : original_checks) {
    if (candidate.has_check(check)) return true;
  }
  return false;
}

}  // namespace

ShrinkResult shrink(const FuzzCase& failing, const OracleReport& original,
                    const ShrinkOptions& options) {
  if (original.ok()) {
    throw std::invalid_argument(
        "fuzz::shrink needs a failing case (original report is ok)");
  }
  std::vector<std::string> original_checks;
  for (const auto& violation : original.violations) {
    original_checks.push_back(violation.check);
  }

  ShrinkResult result;
  result.minimized = failing;
  result.report = original;

  // Round-robin the passes to a fixpoint: a round that accepts nothing
  // (every pass either exhausted or rejected) terminates the search.
  bool progressed = true;
  while (progressed && result.attempts < kMaxAttempts) {
    progressed = false;
    for (const Pass& pass : kPasses) {
      if (result.attempts >= kMaxAttempts) break;
      // Greedily re-apply one pass while it keeps paying off (e.g.
      // halve the duration all the way down to its floor).
      while (result.attempts < kMaxAttempts) {
        FuzzCase candidate = result.minimized;
        if (!pass.apply(candidate.config)) break;
        normalize(candidate.config);
        ++result.attempts;
        OracleReport report = run_oracle(candidate, options.oracle);
        result.total_runs += report.runs;
        if (!reproduces(report, original_checks)) break;
        result.minimized = std::move(candidate);
        result.report = std::move(report);
        ++result.steps;
        progressed = true;
      }
    }
  }
  return result;
}

}  // namespace dope::fuzz
