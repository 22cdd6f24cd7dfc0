#include "site/site.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"

namespace dope::site {

const char* glb_policy_name(GlobalLbPolicy policy) {
  switch (policy) {
    case GlobalLbPolicy::kWeighted: return "weighted";
    case GlobalLbPolicy::kLeastLoaded: return "least_loaded";
    case GlobalLbPolicy::kZoneAffinity: return "zone_affinity";
  }
  return "?";
}

const char* divider_name(DividerKind kind) {
  switch (kind) {
    case DividerKind::kStatic: return "static";
    case DividerKind::kDemandProportional: return "demand";
    case DividerKind::kHeadroomAware: return "headroom";
  }
  return "?";
}

namespace {

/// `facility * part_i / sum(parts)`, with `fallback` taking over when
/// the parts sum to nothing (e.g. no demand measured yet).
std::vector<Watts> proportional(Watts facility,
                                const std::vector<double>& parts,
                                const std::vector<double>* fallback) {
  double total = 0.0;
  for (double p : parts) total += p;
  if (!(total > 0.0) && fallback != nullptr) {
    return proportional(facility, *fallback, nullptr);
  }
  std::vector<Watts> shares(parts.size(), Watts{0.0});
  if (!(total > 0.0)) return shares;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    shares[i] = facility * (parts[i] / total);
  }
  return shares;
}

void apply_floor(std::vector<Watts>& shares) {
  for (Watts& s : shares) s = std::max(s, kMinZoneBudget);
}

}  // namespace

std::vector<Watts> divide_budget(DividerKind kind, Watts facility,
                                 const std::vector<ZoneSignal>& zones) {
  DOPE_REQUIRE(!zones.empty(), "divider needs at least one zone");
  DOPE_REQUIRE(facility > Watts{0.0}, "facility budget must be positive");

  std::vector<double> weights(zones.size());
  for (std::size_t i = 0; i < zones.size(); ++i) {
    weights[i] = zones[i].weight;
  }

  std::vector<Watts> shares;
  switch (kind) {
    case DividerKind::kStatic: {
      shares = proportional(facility, weights, nullptr);
      break;
    }
    case DividerKind::kDemandProportional: {
      std::vector<double> demand(zones.size());
      for (std::size_t i = 0; i < zones.size(); ++i) {
        demand[i] = std::max(zones[i].demand.value(), 0.0);
      }
      shares = proportional(facility, demand, &weights);
      break;
    }
    case DividerKind::kHeadroomAware: {
      // Demand first (a zone never asks for more than its nameplate)...
      std::vector<double> demand(zones.size());
      double total_demand = 0.0;
      for (std::size_t i = 0; i < zones.size(); ++i) {
        demand[i] = std::clamp(zones[i].demand.value(), 0.0,
                               std::max(zones[i].nameplate.value(), 0.0));
        total_demand += demand[i];
      }
      if (total_demand >= facility.value()) {
        // Facility cannot cover the sum: scale demands proportionally.
        shares = proportional(facility, demand, &weights);
        break;
      }
      // ...then slack goes where there is capacity to use it.
      shares.assign(zones.size(), Watts{0.0});
      std::vector<double> headroom(zones.size());
      double total_headroom = 0.0;
      for (std::size_t i = 0; i < zones.size(); ++i) {
        shares[i] = Watts{demand[i]};
        headroom[i] =
            std::max(zones[i].nameplate.value() - demand[i], 0.0);
        total_headroom += headroom[i];
      }
      const Watts slack = facility - Watts{total_demand};
      const std::vector<Watts> extra = proportional(
          slack, total_headroom > 0.0 ? headroom : weights, nullptr);
      for (std::size_t i = 0; i < zones.size(); ++i) {
        shares[i] += extra[i];
      }
      break;
    }
  }
  apply_floor(shares);
  return shares;
}

// ------------------------------------------------------------------ Site

void Site::validate(const SiteConfig& config) {
  if (config.zones.empty()) {
    throw std::invalid_argument("site needs at least one zone");
  }
  for (const ZoneConfig& zone : config.zones) {
    if (!(zone.weight > 0.0)) {
      throw std::invalid_argument("zone weight must be positive");
    }
  }
  if (config.facility_budget < Watts{0.0}) {
    throw std::invalid_argument("facility budget must be non-negative");
  }
  if (config.reapportion_period <= 0) {
    throw std::invalid_argument("reapportion period must be positive");
  }
}

Site::Site(sim::Engine& engine, const workload::Catalog& catalog,
           SiteConfig config)
    : engine_(engine), config_((validate(config), std::move(config))) {
  const std::size_t n = config_.zones.size();
  const bool multi = n > 1;
  other_zones_.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    // Each zone keeps its settings in its own Cluster (`zone(i).config()`).
    cluster::ClusterConfig zone_config = std::move(config_.zones[i].cluster);
    zone_config.zone = multi ? static_cast<int>(i) : -1;
    if (i == 0) {
      first_zone_.emplace(engine_, catalog, std::move(zone_config));
    } else {
      other_zones_.push_back(std::make_unique<cluster::Cluster>(
          engine_, catalog, std::move(zone_config)));
    }
    if (multi) zone(i).add_record_listener(request_metrics_.sink());
  }

  facility_budget_ = config_.facility_budget;
  if (!(facility_budget_ > Watts{0.0})) {
    for (std::size_t i = 0; i < n; ++i) {
      facility_budget_ += zone(i).power().budget();
    }
  }

  if (multi) wrr_current_.assign(n, 0.0);

  if (obs::Hub* hub = engine_.obs(); multi && hub != nullptr) {
    auto& reg = hub->registry();
    obs_routed_.reserve(n);
    obs_zone_budget_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const obs::Labels labels{{"zone", std::to_string(i)}};
      obs_routed_.push_back(&reg.counter("site.glb_routed", labels));
      obs_zone_budget_.push_back(&reg.gauge("site.zone_budget_w", labels));
    }
    if (obs::TimeSeriesStore* ts = hub->timeseries(); ts != nullptr) {
      ts_zone_budget_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        ts_zone_budget_.push_back(&ts->series(
            cluster::zone_name("site.zone_budget_w", static_cast<int>(i))));
      }
    }
  }

  // First apportioning happens before any traffic; with no demand
  // measured yet the demand-aware dividers fall back to weights.
  reapportion();
  if (!multi) return;  // one zone: its share stays the facility budget

  // Registered after every zone's management-slot periodic, so when both
  // fire at the same instant each zone settles its books and runs its
  // control stage before the site moves budgets.
  divider_task_ = engine_.every(config_.reapportion_period,
                                [this] { reapportion(); });
}

Site::~Site() { divider_task_.stop(); }

std::vector<ZoneSignal> Site::signals() const {
  std::vector<ZoneSignal> out(num_zones());
  for (std::size_t i = 0; i < num_zones(); ++i) {
    const cluster::Cluster& zone = this->zone(i);
    out[i].weight = config_.zones[i].weight;
    out[i].demand = zone.power().last_slot_demand();
    out[i].nameplate = zone.power().total_nameplate();
    out[i].in_outage = zone.power().in_outage();
  }
  return out;
}

void Site::reapportion() {
  if (num_zones() == 1) {
    apply_budgets({facility_budget_});
    return;
  }
  apply_budgets(divide_budget(config_.divider, facility_budget_, signals()));
}

void Site::apply_budgets(std::vector<Watts> shares) {
  zone_budgets_ = std::move(shares);
  for (std::size_t i = 0; i < num_zones(); ++i) {
    const Watts share = zone_budgets_[i];
    zone(i).power().set_budget(share);
    if (!obs_zone_budget_.empty()) obs_zone_budget_[i]->set(share.value());
    if (!ts_zone_budget_.empty()) {
      ts_zone_budget_[i]->sample(engine_.now(), share.value());
    }
  }
  ++reapportions_;
}

std::size_t Site::weighted_pick(bool commit) {
  // Smooth weighted round-robin: every zone's accumulator grows by its
  // weight, the largest wins and pays back the total — deterministic
  // and drift-free. Zones in outage sit the round out (unless all are).
  const std::size_t n = num_zones();
  if (n == 1) return 0;  // one zone keeps no accumulators
  bool any_up = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!zone(i).power().in_outage()) any_up = true;
  }
  double total = 0.0;
  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (any_up && zone(i).power().in_outage()) continue;
    const double w = config_.zones[i].weight;
    total += w;
    const double score = wrr_current_[i] + w;
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  if (commit) {
    for (std::size_t i = 0; i < n; ++i) {
      if (any_up && zone(i).power().in_outage()) continue;
      wrr_current_[i] += config_.zones[i].weight;
    }
    wrr_current_[best] -= total;
  }
  return best;
}

std::size_t Site::least_loaded_pick() {
  bool any_up = false;
  for (std::size_t i = 0; i < num_zones(); ++i) {
    if (!zone(i).power().in_outage()) any_up = true;
  }
  std::size_t best = 0;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < num_zones(); ++i) {
    cluster::Cluster& candidate = zone(i);
    if (any_up && candidate.power().in_outage()) continue;
    std::size_t load = 0;
    for (std::size_t s = 0; s < candidate.num_servers(); ++s) {
      load += candidate.server(s).load();
    }
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

std::size_t Site::affinity_pick(workload::SourceId source) const {
  const std::size_t n = num_zones();
  std::uint64_t h = source;
  const std::size_t start =
      static_cast<std::size_t>(splitmix64(h) % n);
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t i = (start + probe) % n;
    if (!zone(i).power().in_outage()) return i;
  }
  return start;  // every zone dark: keep the stable assignment
}

std::size_t Site::select_zone(const workload::Request& request) {
  switch (config_.policy) {
    case GlobalLbPolicy::kWeighted: return weighted_pick(/*commit=*/true);
    case GlobalLbPolicy::kLeastLoaded: return least_loaded_pick();
    case GlobalLbPolicy::kZoneAffinity:
      return affinity_pick(request.source);
  }
  return 0;
}

std::size_t Site::peek_zone(const workload::Request& request) const {
  Site& self = const_cast<Site&>(*this);
  switch (config_.policy) {
    case GlobalLbPolicy::kWeighted:
      return self.weighted_pick(/*commit=*/false);
    case GlobalLbPolicy::kLeastLoaded: return self.least_loaded_pick();
    case GlobalLbPolicy::kZoneAffinity:
      return affinity_pick(request.source);
  }
  return 0;
}

void Site::ingest(workload::Request&& request) {
  const std::size_t z = select_zone(request);
  if (!obs_routed_.empty()) obs_routed_[z]->inc();
  zone(z).ingest(std::move(request));
}

workload::RequestSink Site::edge_sink() {
  if (num_zones() == 1) return zone(0).edge_sink();
  return [this](workload::Request&& request) {
    this->ingest(std::move(request));
  };
}

workload::RequestSink Site::zone_sink(std::size_t zone) {
  DOPE_REQUIRE(zone < num_zones(), "zone_sink: zone out of range");
  cluster::Cluster* target = &this->zone(zone);
  return [target](workload::Request&& request) {
    target->ingest(std::move(request));
  };
}

metrics::RequestMetrics& Site::request_metrics() {
  return num_zones() == 1 ? zone(0).request_metrics() : request_metrics_;
}

metrics::EnergyAccount Site::aggregate_energy() const {
  metrics::EnergyAccount total;
  for (std::size_t i = 0; i < num_zones(); ++i) {
    const metrics::EnergyAccount& account = zone(i).energy_account();
    total.add_joules(account.utility, account.battery, account.recharge);
  }
  return total;
}

Joules Site::total_energy() const {
  Joules total{0.0};
  for (std::size_t i = 0; i < num_zones(); ++i) {
    total += zone(i).data().total_energy();
  }
  return total;
}

void Site::run_for(Duration d) { engine_.run_until(engine_.now() + d); }

}  // namespace dope::site
