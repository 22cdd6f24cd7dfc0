#include "sweep/flags.hpp"

#include <climits>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>

#include "sweep/sweep.hpp"

namespace dope::sweep {

namespace {

template <typename T>
T lookup(const char* what, const std::string& name,
         std::initializer_list<std::pair<const char*, T>> table) {
  for (const auto& [key, value] : table) {
    if (name == key) return value;
  }
  throw std::invalid_argument(std::string("unknown ") + what + ": " + name);
}

}  // namespace

scenario::ScenarioConfig default_scenario() {
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.budget = power::BudgetLevel::kLow;
  config.normal_rps = 300.0;
  config.attack_rps = 400.0;
  config.attack_mixture = AttackProfile::dope(config.attack_rps).mixture;
  config.duration = 10 * kMinute;
  config.seed = 42;
  return config;
}

const char* const kScenarioFlagsHelp =
    R"(cluster
  --servers N          leaf nodes (default 8)
  --budget LEVEL       normal | high | medium | low (default low)
  --budget-watts W     explicit supply in watts (overrides --budget)
  --battery-min M      battery runtime in minutes at full load (default 2)
  --firewall           enable the DDoS-deflate firewall (150 rps/source)
  --breaker-watts W    protect the utility feed with a breaker rated W
  --slot-ms MS         management slot (default 1000)

site (multi-zone; see docs/SITE.md)
  --zones N            zone count (default 1 = the paper's single
                       cluster; >= 2 puts N identical zones behind a
                       global LB, each with --servers servers and its
                       own scheme)
  --glb POLICY         weighted | least-loaded | affinity (default
                       weighted)
  --divider KIND       static | demand | headroom — how the facility
                       budget is split across zones (default static)
  --attack-zone Z      concentrate attack traffic on zone Z's front
                       door instead of the global LB (0 <= Z < N)

scheme
  --scheme NAME        none | capping | shaving | token | antidope
                       (default antidope)
  --online             Anti-DOPE: learn the suspect list online
  --per-node           Anti-DOPE: per-node DPM throttling (TL(p,q))
  --pool-fraction F    Anti-DOPE: suspect pool share (default 0.25)

traffic
  --normal-rps R       normal user rate (default 300)
  --attack-rps R       DOPE attack rate (default 400; 0 disables)
  --attack-type T      colla-filt | kmeans | wordcount | blend (default)
  --agents N           attack botnet size (default 64)
  --attack-start-s S   attack onset time (default 0)

run
  --duration-s S       observation window (default 600, the paper's 10 min)
  --seed N             RNG seed (default 42; accepts 0x hex)
)";

bool read_scenario_flag(cli::ArgCursor& args,
                        scenario::ScenarioConfig& config) {
  const std::string& flag = args.flag();
  if (flag == "--servers") {
    config.num_servers = args.count();
  } else if (flag == "--budget") {
    config.budget = parse_budget(args.value());
  } else if (flag == "--budget-watts") {
    config.budget_override = Watts{args.number()};
  } else if (flag == "--battery-min") {
    config.battery_runtime = static_cast<Duration>(args.number() * kMinute);
  } else if (flag == "--firewall") {
    net::FirewallConfig firewall;
    firewall.threshold_rps = 150.0;
    firewall.check_interval = 5 * kSecond;
    config.firewall = firewall;
  } else if (flag == "--breaker-watts") {
    power::BreakerSpec breaker;
    breaker.rated = Watts{args.number()};
    config.breaker = breaker;
  } else if (flag == "--slot-ms") {
    config.slot = millis(args.number());
  } else if (flag == "--zones") {
    config.num_zones = args.count();
    if (config.num_zones < 1) {
      throw std::invalid_argument("--zones needs at least 1");
    }
  } else if (flag == "--glb") {
    config.glb_policy = lookup<site::GlobalLbPolicy>(
        "GLB policy", args.value(),
        {{"weighted", site::GlobalLbPolicy::kWeighted},
         {"least-loaded", site::GlobalLbPolicy::kLeastLoaded},
         {"affinity", site::GlobalLbPolicy::kZoneAffinity}});
  } else if (flag == "--divider") {
    config.site_divider = lookup<site::DividerKind>(
        "divider", args.value(),
        {{"static", site::DividerKind::kStatic},
         {"demand", site::DividerKind::kDemandProportional},
         {"headroom", site::DividerKind::kHeadroomAware}});
  } else if (flag == "--attack-zone") {
    config.attack_zone = args.integer();
  } else if (flag == "--scheme") {
    config.scheme = parse_scheme(args.value());
  } else if (flag == "--online") {
    config.antidope.online_learning = true;
  } else if (flag == "--per-node") {
    config.antidope.per_node_throttling = true;
  } else if (flag == "--pool-fraction") {
    config.antidope.suspect_pool_fraction = args.number();
  } else if (flag == "--normal-rps") {
    config.normal_rps = args.number();
  } else if (flag == "--attack-rps") {
    config.attack_rps = args.number();
  } else if (flag == "--attack-type") {
    using workload::Catalog;
    using workload::Mixture;
    config.attack_mixture = lookup<Mixture>(
        "attack type", args.value(),
        {{"colla-filt", Mixture::single(Catalog::kCollaFilt)},
         {"kmeans", Mixture::single(Catalog::kKMeans)},
         {"wordcount", Mixture::single(Catalog::kWordCount)},
         {"blend", *AttackProfile::dope(0.0).mixture}});
  } else if (flag == "--agents") {
    config.attack_agents = static_cast<unsigned>(args.count(UINT_MAX));
  } else if (flag == "--attack-start-s") {
    config.attack_start = seconds(args.number());
  } else if (flag == "--duration-s") {
    config.duration = seconds(args.number());
  } else if (flag == "--seed") {
    config.seed = args.seed();
  } else {
    return false;
  }
  return true;
}

void check_scenario_flags(const scenario::ScenarioConfig& config) {
  if (config.attack_zone < -1 ||
      config.attack_zone >= static_cast<int>(config.num_zones)) {
    throw std::invalid_argument(
        "--attack-zone " + std::to_string(config.attack_zone) +
        " is outside the site's " + std::to_string(config.num_zones) +
        " zone(s)");
  }
}

}  // namespace dope::sweep
