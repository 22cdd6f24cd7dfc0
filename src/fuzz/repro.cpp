#include "fuzz/repro.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/minijson.hpp"
#include "obs/json.hpp"

namespace dope::fuzz {

namespace {

constexpr int kReproVersion = 1;

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("repro: " + message);
}

// ---- writing ----

/// Doubles with enough digits to round-trip binary64 exactly; shrunk
/// configs must re-run bit-for-bit, so "%.12g pretty" is not enough.
void write_number(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

void write_u64(std::ostream& out, std::uint64_t v) {
  // As a string: JSON readers that funnel numbers through a double
  // would corrupt seeds above 2^53.
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%" PRIu64 "\"", v);
  out << buf;
}

void write_mixture(std::ostream& out,
                   const std::optional<workload::Mixture>& mixture) {
  if (!mixture.has_value()) {
    out << "null";
    return;
  }
  out << "{\"types\": [";
  const auto& types = mixture->types();
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (i > 0) out << ", ";
    out << types[i];
  }
  // Mixture exposes its normalised cumulative table; store the deltas so
  // the constructor rebuilds the same table on load.
  out << "], \"weights\": [";
  const auto& cumulative = mixture->weights();
  double prev = 0.0;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (i > 0) out << ", ";
    write_number(out, cumulative[i] - prev);
    prev = cumulative[i];
  }
  out << "]}";
}

void write_rate_plan(std::ostream& out,
                     const std::vector<workload::RateStep>& plan) {
  out << "[";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"at_us\": " << plan[i].at << ", \"rate_rps\": ";
    write_number(out, plan[i].rate_rps);
    out << "}";
  }
  out << "]";
}

// ---- parsing ----
//
// The document model and parser live in common/minijson.hpp; repro
// keeps only its domain-level decoding on top of them.

using JsonValue = minijson::Value;
using minijson::as_double;
using minijson::as_i64;
using minijson::as_string;
using minijson::as_u64_string;
using minijson::require;

// ---- enum name maps (two-way, local so fuzz stays CLI-independent) ----

std::string budget_token(power::BudgetLevel level) {
  switch (level) {
    case power::BudgetLevel::kNormal: return "normal";
    case power::BudgetLevel::kHigh: return "high";
    case power::BudgetLevel::kMedium: return "medium";
    case power::BudgetLevel::kLow: return "low";
  }
  return "?";
}

power::BudgetLevel parse_budget_token(const std::string& token) {
  if (token == "normal") return power::BudgetLevel::kNormal;
  if (token == "high") return power::BudgetLevel::kHigh;
  if (token == "medium") return power::BudgetLevel::kMedium;
  if (token == "low") return power::BudgetLevel::kLow;
  fail("unknown budget level \"" + token + "\"");
}

site::GlobalLbPolicy parse_glb_token(const std::string& token) {
  for (const auto policy :
       {site::GlobalLbPolicy::kWeighted, site::GlobalLbPolicy::kLeastLoaded,
        site::GlobalLbPolicy::kZoneAffinity}) {
    if (site::glb_policy_name(policy) == token) return policy;
  }
  fail("unknown GLB policy \"" + token + "\"");
}

site::DividerKind parse_divider_token(const std::string& token) {
  for (const auto kind :
       {site::DividerKind::kStatic, site::DividerKind::kDemandProportional,
        site::DividerKind::kHeadroomAware}) {
    if (site::divider_name(kind) == token) return kind;
  }
  fail("unknown divider \"" + token + "\"");
}

scenario::SchemeKind parse_scheme_token(const std::string& token) {
  for (const auto kind :
       {scenario::SchemeKind::kNone, scenario::SchemeKind::kCapping,
        scenario::SchemeKind::kShaving, scenario::SchemeKind::kToken,
        scenario::SchemeKind::kAntiDope}) {
    if (scenario::scheme_name(kind) == token) return kind;
  }
  fail("unknown scheme \"" + token + "\"");
}

/// A count field (servers, sources, an index): a whole number in
/// [0, max of T], never a negative one cast to a huge size.
template <typename T>
T as_count(const JsonValue& value, const std::string& key) {
  const std::int64_t n = as_i64(value, key);
  if (n < 0 || static_cast<std::uint64_t>(n) > std::numeric_limits<T>::max()) {
    fail("field \"" + key + "\" is not a count: " + std::to_string(n));
  }
  return static_cast<T>(n);
}

std::optional<workload::Mixture> parse_mixture(const JsonValue& value) {
  if (value.kind == JsonValue::Kind::kNull) return std::nullopt;
  const JsonValue& types_json = require(value, "types");
  const JsonValue& weights_json = require(value, "weights");
  if (types_json.items.size() != weights_json.items.size() ||
      types_json.items.empty()) {
    fail("mixture types/weights must be non-empty and equal-length");
  }
  std::vector<workload::RequestTypeId> types;
  std::vector<double> weights;
  types.reserve(types_json.items.size());
  weights.reserve(weights_json.items.size());
  for (const auto& item : types_json.items) {
    types.push_back(as_count<workload::RequestTypeId>(item, "types[]"));
  }
  for (const auto& item : weights_json.items) {
    weights.push_back(as_double(item, "weights[]"));
  }
  return workload::Mixture(std::move(types), std::move(weights));
}

std::vector<workload::RateStep> parse_rate_plan(const JsonValue& value) {
  std::vector<workload::RateStep> plan;
  plan.reserve(value.items.size());
  for (const auto& item : value.items) {
    workload::RateStep step;
    step.at = as_i64(require(item, "at_us"), "at_us");
    step.rate_rps = as_double(require(item, "rate_rps"), "rate_rps");
    plan.push_back(step);
  }
  return plan;
}

}  // namespace

void write_repro(std::ostream& out, const Repro& repro) {
  const scenario::ScenarioConfig& c = repro.fuzz_case.config;
  out << "{\n";
  out << "  \"dopefuzz_repro\": " << kReproVersion << ",\n";
  out << "  \"case_seed\": ";
  write_u64(out, repro.fuzz_case.case_seed);
  out << ",\n  \"scheme\": ";
  obs::write_json_string(out, scenario::scheme_name(repro.fuzz_case.scheme));
  out << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < repro.checks.size(); ++i) {
    if (i > 0) out << ", ";
    obs::write_json_string(out, repro.checks[i]);
  }
  out << "],\n";
  out << "  \"config\": {\n";
  out << "    \"num_servers\": " << c.num_servers << ",\n";
  out << "    \"budget\": ";
  obs::write_json_string(out, budget_token(c.budget));
  out << ",\n    \"budget_override_w\": ";
  write_number(out, c.budget_override.value());
  out << ",\n    \"battery_runtime_us\": " << c.battery_runtime << ",\n";
  out << "    \"slot_us\": " << c.slot << ",\n";
  out << "    \"firewall\": ";
  if (c.firewall.has_value()) {
    out << "{\"threshold_rps\": ";
    write_number(out, c.firewall->threshold_rps);
    out << ", \"check_interval_us\": " << c.firewall->check_interval
        << ", \"required_strikes\": " << c.firewall->required_strikes
        << ", \"ban_duration_us\": " << c.firewall->ban_duration << "}";
  } else {
    out << "null";
  }
  out << ",\n    \"breaker\": ";
  if (c.breaker.has_value()) {
    out << "{\"rated_w\": ";
    write_number(out, c.breaker->rated.value());
    out << ", \"instant_trip_multiple\": ";
    write_number(out, c.breaker->instant_trip_multiple);
    out << ", \"thermal_capacity\": ";
    write_number(out, c.breaker->thermal_capacity);
    out << ", \"cooling_rate\": ";
    write_number(out, c.breaker->cooling_rate);
    out << "}";
  } else {
    out << "null";
  }
  out << ",\n    \"normal_rps\": ";
  write_number(out, c.normal_rps);
  out << ",\n    \"normal_sources\": " << c.normal_sources << ",\n";
  out << "    \"normal_mixture\": ";
  write_mixture(out, c.normal_mixture);
  out << ",\n    \"normal_rate_plan\": ";
  write_rate_plan(out, c.normal_rate_plan);
  out << ",\n    \"attack_rps\": ";
  write_number(out, c.attack_rps);
  out << ",\n    \"attack_agents\": " << c.attack_agents << ",\n";
  out << "    \"attack_mixture\": ";
  write_mixture(out, c.attack_mixture);
  out << ",\n    \"attack_start_us\": " << c.attack_start << ",\n";
  out << "    \"attack_stop_us\": " << c.attack_stop << ",\n";
  out << "    \"attack_rate_plan\": ";
  write_rate_plan(out, c.attack_rate_plan);
  out << ",\n    \"node_outages\": [";
  for (std::size_t i = 0; i < c.node_outages.size(); ++i) {
    if (i > 0) out << ", ";
    const auto& outage = c.node_outages[i];
    out << "{\"server\": " << outage.server << ", \"at_us\": " << outage.at
        << ", \"down_us\": " << outage.down << "}";
  }
  out << "],\n";
  out << "    \"site\": {\"num_zones\": " << c.num_zones << ", \"glb\": \""
      << site::glb_policy_name(c.glb_policy) << "\", \"divider\": \""
      << site::divider_name(c.site_divider)
      << "\", \"attack_zone\": " << c.attack_zone
      << ", \"reapportion_period_us\": " << c.reapportion_period
      << ", \"zone_weights\": [";
  for (std::size_t i = 0; i < c.zone_weights.size(); ++i) {
    if (i > 0) out << ", ";
    write_number(out, c.zone_weights[i]);
  }
  out << "]},\n";
  out << "    \"duration_us\": " << c.duration << ",\n";
  out << "    \"power_sample_interval_us\": " << c.power_sample_interval
      << ",\n";
  out << "    \"seed\": ";
  write_u64(out, c.seed);
  out << "\n  }\n}\n";
}

void write_repro_file(const std::string& path, const Repro& repro) {
  std::ofstream out(path);
  if (!out) fail("cannot open \"" + path + "\" for writing");
  write_repro(out, repro);
  out.flush();
  if (!out) fail("failed writing \"" + path + "\"");
}

Repro read_repro(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = minijson::parse(buffer.str());

  const std::int64_t version =
      as_i64(require(root, "dopefuzz_repro"), "dopefuzz_repro");
  if (version != kReproVersion) {
    fail("unsupported repro version " + std::to_string(version));
  }

  Repro repro;
  repro.fuzz_case.case_seed =
      as_u64_string(require(root, "case_seed"), "case_seed");
  repro.fuzz_case.scheme =
      parse_scheme_token(as_string(require(root, "scheme"), "scheme"));
  for (const auto& check : require(root, "checks").items) {
    repro.checks.push_back(as_string(check, "checks[]"));
  }

  const JsonValue& config = require(root, "config");
  scenario::ScenarioConfig& c = repro.fuzz_case.config;
  c.scheme = scenario::SchemeKind::kNone;  // FuzzCase invariant
  c.num_servers =
      as_count<std::size_t>(require(config, "num_servers"), "num_servers");
  c.budget = parse_budget_token(
      as_string(require(config, "budget"), "budget"));
  c.budget_override = Watts{
      as_double(require(config, "budget_override_w"), "budget_override_w")};
  c.battery_runtime =
      as_i64(require(config, "battery_runtime_us"), "battery_runtime_us");
  c.slot = as_i64(require(config, "slot_us"), "slot_us");

  const JsonValue& firewall = require(config, "firewall");
  if (firewall.kind != JsonValue::Kind::kNull) {
    net::FirewallConfig fw;
    fw.threshold_rps =
        as_double(require(firewall, "threshold_rps"), "threshold_rps");
    fw.check_interval =
        as_i64(require(firewall, "check_interval_us"), "check_interval_us");
    fw.required_strikes = as_count<unsigned>(
        require(firewall, "required_strikes"), "required_strikes");
    fw.ban_duration =
        as_i64(require(firewall, "ban_duration_us"), "ban_duration_us");
    c.firewall = fw;
  }
  const JsonValue& breaker = require(config, "breaker");
  if (breaker.kind != JsonValue::Kind::kNull) {
    power::BreakerSpec spec;
    spec.rated =
        Watts{as_double(require(breaker, "rated_w"), "rated_w")};
    spec.instant_trip_multiple = as_double(
        require(breaker, "instant_trip_multiple"), "instant_trip_multiple");
    spec.thermal_capacity = as_double(require(breaker, "thermal_capacity"),
                                      "thermal_capacity");
    spec.cooling_rate =
        as_double(require(breaker, "cooling_rate"), "cooling_rate");
    c.breaker = spec;
  }

  c.normal_rps = as_double(require(config, "normal_rps"), "normal_rps");
  c.normal_sources =
      as_count<unsigned>(require(config, "normal_sources"), "normal_sources");
  c.normal_mixture = parse_mixture(require(config, "normal_mixture"));
  c.normal_rate_plan = parse_rate_plan(require(config, "normal_rate_plan"));
  c.attack_rps = as_double(require(config, "attack_rps"), "attack_rps");
  c.attack_agents =
      as_count<unsigned>(require(config, "attack_agents"), "attack_agents");
  c.attack_mixture = parse_mixture(require(config, "attack_mixture"));
  c.attack_start =
      as_i64(require(config, "attack_start_us"), "attack_start_us");
  c.attack_stop = as_i64(require(config, "attack_stop_us"), "attack_stop_us");
  c.attack_rate_plan = parse_rate_plan(require(config, "attack_rate_plan"));
  for (const auto& item : require(config, "node_outages").items) {
    scenario::NodeOutage outage;
    outage.server = as_count<std::size_t>(require(item, "server"), "server");
    outage.at = as_i64(require(item, "at_us"), "at_us");
    outage.down = as_i64(require(item, "down_us"), "down_us");
    c.node_outages.push_back(outage);
  }
  // Site block: absent in pre-site repro files, which are single-zone
  // by construction.
  if (const JsonValue* site = config.find("site");
      site != nullptr && site->kind != JsonValue::Kind::kNull) {
    c.num_zones =
        as_count<std::size_t>(require(*site, "num_zones"), "num_zones");
    c.glb_policy =
        parse_glb_token(as_string(require(*site, "glb"), "glb"));
    c.site_divider =
        parse_divider_token(as_string(require(*site, "divider"), "divider"));
    const std::int64_t attack_zone =
        as_i64(require(*site, "attack_zone"), "attack_zone");
    c.reapportion_period = as_i64(
        require(*site, "reapportion_period_us"), "reapportion_period_us");
    for (const auto& item : require(*site, "zone_weights").items) {
      c.zone_weights.push_back(as_double(item, "zone_weights[]"));
    }
    if (c.num_zones < 1) fail("num_zones must be at least 1");
    // Checked before the narrowing to int, so 2^32 never reads as zone 0.
    if (attack_zone < -1 ||
        attack_zone >= static_cast<std::int64_t>(c.num_zones) ||
        attack_zone > std::numeric_limits<int>::max()) {
      fail("attack_zone " + std::to_string(attack_zone) +
           " is outside the site's " + std::to_string(c.num_zones) +
           " zone(s)");
    }
    c.attack_zone = static_cast<int>(attack_zone);
  }
  c.duration = as_i64(require(config, "duration_us"), "duration_us");
  c.power_sample_interval = as_i64(
      require(config, "power_sample_interval_us"), "power_sample_interval_us");
  c.seed = as_u64_string(require(config, "seed"), "seed");
  return repro;
}

Repro read_repro_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open \"" + path + "\"");
  return read_repro(in);
}

}  // namespace dope::fuzz
