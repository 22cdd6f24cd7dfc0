#include "fuzz/domain.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/rng.hpp"
#include "power/power_model.hpp"
#include "power/provisioning.hpp"

namespace dope::fuzz {

namespace {

using workload::Catalog;

// The sampled space. Every constant bounds or gates one `ScenarioConfig`
// dimension.

// --- topology ---
constexpr std::size_t kMinServers = 2;
constexpr std::size_t kMaxServers = 12;

// --- power provisioning ---
constexpr power::BudgetLevel kBudgets[] = {
    power::BudgetLevel::kNormal, power::BudgetLevel::kHigh,
    power::BudgetLevel::kMedium, power::BudgetLevel::kLow};

/// Schemes under test (one per case). The differential oracle always
/// adds the uncapped `kNone` reference run on top.
constexpr scenario::SchemeKind kSchemes[] = {
    scenario::SchemeKind::kCapping, scenario::SchemeKind::kShaving,
    scenario::SchemeKind::kToken, scenario::SchemeKind::kAntiDope};

// --- observation window (whole seconds) ---
constexpr Duration kMinDuration = 20 * kSecond;
constexpr Duration kMaxDuration = 90 * kSecond;

// --- normal traffic ---
constexpr double kMinNormalRps = 25.0;
constexpr double kMaxNormalRps = 600.0;
/// Chance of a random service blend instead of the AliOS normal mix.
constexpr double kPCustomNormalMixture = 0.3;
constexpr double kPNormalRatePlan = 0.25;

// --- attack traffic ---
constexpr double kPAttack = 0.75;
constexpr double kMinAttackRps = 50.0;
constexpr double kMaxAttackRps = 900.0;
constexpr double kPAttackRatePlan = 0.35;
constexpr std::size_t kMaxRateSteps = 3;

// --- infrastructure toggles ---
constexpr double kPBattery = 0.7;
constexpr double kPFirewall = 0.25;
constexpr double kPBreaker = 0.2;

// --- mid-run chaos ---
constexpr double kPNodeOutage = 0.3;
constexpr std::size_t kMaxNodeOutages = 2;

// --- multi-zone sites (docs/SITE.md) ---
/// Chance a case is a multi-zone `site::Site` instead of a single
/// cluster; when it hits, the zone count is drawn from [2, kMaxZones]
/// along with a GLB policy, a budget divider, random zone weights, and
/// (half the time) a zone-concentrated attack.
constexpr double kPSite = 0.3;
constexpr std::size_t kMaxZones = 3;

/// Draws a whole-second duration in [lo, hi] (keeps repro files tidy).
Duration sample_seconds(Rng& rng, Duration lo, Duration hi) {
  const auto lo_s = static_cast<std::int64_t>(lo / kSecond);
  const auto hi_s = static_cast<std::int64_t>(hi / kSecond);
  return rng.uniform_int(lo_s, hi_s) * kSecond;
}

/// Random non-empty blend over `types` with uniform weights.
workload::Mixture sample_mixture(Rng& rng,
                                 std::vector<workload::RequestTypeId> pool) {
  // Keep a random subset (at least one entry), preserving pool order so
  // the draw sequence stays stable.
  std::vector<workload::RequestTypeId> kept;
  for (const auto type : pool) {
    if (rng.chance(0.6)) kept.push_back(type);
  }
  if (kept.empty()) {
    kept.push_back(pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))]);
  }
  std::vector<double> weights;
  weights.reserve(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    weights.push_back(rng.uniform(0.25, 2.0));
  }
  return workload::Mixture(std::move(kept), std::move(weights));
}

/// Time-ordered piecewise-constant rate plan inside (0, duration).
std::vector<workload::RateStep> sample_rate_plan(Rng& rng, Duration duration,
                                                 double max_rate,
                                                 std::size_t max_steps) {
  const std::size_t steps = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(max_steps)));
  std::vector<Time> at;
  at.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    at.push_back(sample_seconds(rng, kSecond, duration - kSecond));
  }
  std::sort(at.begin(), at.end());
  at.erase(std::unique(at.begin(), at.end()), at.end());
  std::vector<workload::RateStep> plan;
  plan.reserve(at.size());
  for (const Time t : at) {
    plan.push_back({t, rng.uniform(0.0, max_rate)});
  }
  return plan;
}

}  // namespace

std::string FuzzCase::label() const {
  std::ostringstream out;
  out << "case-0x" << std::hex << case_seed << std::dec << "/"
      << power::budget_name(config.budget) << "/"
      << scenario::scheme_name(scheme) << "/";
  if (config.attack_rps > 0.0) {
    out << "attack-" << static_cast<long long>(config.attack_rps);
  } else {
    out << "calm";
  }
  out << "/" << static_cast<long long>(to_seconds(config.duration)) << "s";
  if (config.num_zones > 1) {
    out << "/" << config.num_zones << "z-"
        << site::divider_name(config.site_divider);
  }
  return out.str();
}

scenario::ScenarioConfig materialize(const FuzzCase& fuzz_case,
                                     scenario::SchemeKind scheme) {
  scenario::ScenarioConfig config = fuzz_case.config;
  config.scheme = scheme;
  config.obs = nullptr;
  config.default_alert_rules = false;
  return config;
}

Watts expected_budget(const scenario::ScenarioConfig& config) {
  if (config.budget_override > Watts{0.0}) return config.budget_override;
  const Watts nameplate = power::ServerPowerSpec{}.nameplate *
                          static_cast<double>(config.num_servers);
  const Watts per_zone =
      power::PowerBudget::for_level(config.budget, nameplate).supply;
  // A multi-zone site's facility budget defaults to the sum of the
  // zones' level-derived budgets (identical zones here).
  return per_zone * static_cast<double>(config.num_zones);
}

std::uint64_t ScenarioSampler::derive_case_seed(std::uint64_t campaign_seed,
                                                std::uint64_t index) {
  // splitmix64 over (campaign, index): one well-mixed stream per
  // campaign, constant-time random access by case index.
  std::uint64_t state = campaign_seed ^ 0x9E3779B97F4A7C15ULL;
  std::uint64_t mixed = splitmix64(state);
  state = mixed ^ index;
  return splitmix64(state);
}

FuzzCase ScenarioSampler::sample(std::uint64_t case_seed) const {
  Rng rng(case_seed);
  FuzzCase fuzz_case;
  fuzz_case.case_seed = case_seed;
  scenario::ScenarioConfig& config = fuzz_case.config;
  config.scheme = scenario::SchemeKind::kNone;
  config.seed = case_seed;

  // --- scheme under test, topology, provisioning ---
  fuzz_case.scheme = kSchemes[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(std::size(kSchemes)) - 1))];
  config.num_servers = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(kMinServers),
      static_cast<std::int64_t>(kMaxServers)));
  config.budget = kBudgets[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(std::size(kBudgets)) - 1))];
  config.duration = sample_seconds(rng, kMinDuration, kMaxDuration);

  const Duration slots[] = {500 * kMillisecond, kSecond, 2 * kSecond};
  config.slot = slots[static_cast<std::size_t>(rng.uniform_int(0, 2))];

  // --- infrastructure ---
  config.battery_runtime =
      rng.chance(kPBattery) ? rng.uniform_int(1, 3) * kMinute : 0;
  if (fuzz_case.scheme == scenario::SchemeKind::kShaving &&
      config.battery_runtime == 0) {
    // ShavingScheme requires a cluster battery by contract; keep the
    // case valid without disturbing the draw sequence.
    config.battery_runtime = kMinute;
  }
  if (rng.chance(kPFirewall)) {
    net::FirewallConfig firewall;
    firewall.threshold_rps = rng.uniform(100.0, 300.0);
    firewall.check_interval = 5 * kSecond;
    config.firewall = firewall;
  }
  if (rng.chance(kPBreaker)) {
    power::BreakerSpec breaker;
    breaker.rated = expected_budget(config) * rng.uniform(1.05, 1.45);
    config.breaker = breaker;
  }

  // --- normal traffic ---
  config.normal_rps = rng.uniform(kMinNormalRps, kMaxNormalRps);
  config.normal_sources =
      static_cast<unsigned>(rng.uniform_int(64, 512));
  if (rng.chance(kPCustomNormalMixture)) {
    config.normal_mixture = sample_mixture(
        rng, {Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount,
              Catalog::kTextCont, Catalog::kDnsQuery});
  }
  if (rng.chance(kPNormalRatePlan)) {
    config.normal_rate_plan =
        sample_rate_plan(rng, config.duration, 1.5 * config.normal_rps,
                         kMaxRateSteps);
  }

  // --- attack traffic ---
  if (rng.chance(kPAttack)) {
    config.attack_rps = rng.uniform(kMinAttackRps, kMaxAttackRps);
    config.attack_agents = static_cast<unsigned>(rng.uniform_int(8, 128));
    config.attack_mixture = sample_mixture(
        rng,
        {Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount});
    config.attack_start =
        sample_seconds(rng, 0, config.duration / 3);
    if (rng.chance(0.3)) {
      config.attack_stop = std::min<Time>(
          config.duration,
          config.attack_start +
              sample_seconds(rng, config.duration / 4,
                             2 * config.duration / 3));
    }
    if (rng.chance(kPAttackRatePlan)) {
      config.attack_rate_plan = sample_rate_plan(
          rng, config.duration, kMaxAttackRps, kMaxRateSteps);
    }
  }

  // --- mid-run chaos: single-node outages ---
  if (rng.chance(kPNodeOutage) && config.num_servers > 1) {
    const std::size_t count = std::min(
        {static_cast<std::size_t>(rng.uniform_int(
             1, static_cast<std::int64_t>(kMaxNodeOutages))),
         config.num_servers});
    std::vector<std::size_t> picked;
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t server = 0;
      do {
        server = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(config.num_servers) - 1));
      } while (std::find(picked.begin(), picked.end(), server) !=
               picked.end());
      picked.push_back(server);
      scenario::NodeOutage outage;
      outage.server = server;
      outage.at =
          sample_seconds(rng, config.duration / 10,
                         2 * config.duration / 3);
      outage.down = sample_seconds(rng, 3 * kSecond, 20 * kSecond);
      config.node_outages.push_back(outage);
    }
  }

  // --- multi-zone sites (sampled last: single-zone cases keep the
  // exact draw sequence — and therefore the exact case — they had
  // before sites existed) ---
  if (rng.chance(kPSite)) {
    config.num_zones = static_cast<std::size_t>(rng.uniform_int(
        2, static_cast<std::int64_t>(kMaxZones)));
    const site::GlobalLbPolicy policies[] = {
        site::GlobalLbPolicy::kWeighted, site::GlobalLbPolicy::kLeastLoaded,
        site::GlobalLbPolicy::kZoneAffinity};
    config.glb_policy =
        policies[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const site::DividerKind dividers[] = {
        site::DividerKind::kStatic, site::DividerKind::kDemandProportional,
        site::DividerKind::kHeadroomAware};
    config.site_divider =
        dividers[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    if (rng.chance(0.5)) {
      config.zone_weights.reserve(config.num_zones);
      for (std::size_t z = 0; z < config.num_zones; ++z) {
        config.zone_weights.push_back(rng.uniform(0.5, 2.0));
      }
    }
    // Half of attacking site cases concentrate the flood on one zone —
    // the DOPE shape the dividers exist to contain.
    if (config.attack_rps > 0.0 && rng.chance(0.5)) {
      config.attack_zone = static_cast<int>(rng.uniform_int(
          0, static_cast<std::int64_t>(config.num_zones) - 1));
    }
  }

  return fuzz_case;
}

}  // namespace dope::fuzz
