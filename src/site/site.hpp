// Multi-zone site: N zones (clusters) behind one global front end.
//
// The paper studies a single power-constrained cluster; real deployments
// spread the fleet across availability zones that share one facility
// feed. A `Site` composes N `cluster::Cluster`s (with two or more, each
// tagged with its zone index so every metric, span, and trace event it
// emits carries a `zone` label) behind two site-wide policies:
//
//   global load balancer  picks the zone for each arriving request
//                         (weighted, least-loaded, or source-affinity)
//   budget divider        apportions one facility budget across zones
//                         (static, demand-proportional, headroom-aware)
//                         and re-applies it periodically through
//                         `PowerPlane::set_budget`
//
// The division matters under attack: a zone-concentrated DOPE flood
// inflates one zone's demand past its share, so a per-zone capping stage
// throttles the victim zone while the rest of the site keeps serving at
// full frequency (see docs/SITE.md).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "metrics/energy.hpp"
#include "metrics/request_metrics.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"
#include "workload/request.hpp"

namespace dope::site {

/// Front-end policy choosing the zone for each arriving request.
enum class GlobalLbPolicy {
  /// Smooth weighted round-robin over `ZoneConfig::weight` (nginx's
  /// algorithm: deterministic, drift-free interleaving).
  kWeighted,
  /// Zone with the fewest in-flight requests; ties break to the lower
  /// zone index.
  kLeastLoaded,
  /// Consistent per-source assignment (splitmix64 of the source id);
  /// a source keeps hitting "its" zone — which is exactly what lets a
  /// concentrated botnet pile onto one victim zone.
  kZoneAffinity,
};

/// How the facility budget is split across zones at each reapportioning.
enum class DividerKind {
  /// Fixed shares proportional to `ZoneConfig::weight`.
  kStatic,
  /// Shares proportional to each zone's last-slot demand (weights used
  /// as the fallback while no demand has been measured). Follows load —
  /// including hostile load, which is the failure mode the headroom
  /// divider exists to avoid.
  kDemandProportional,
  /// Demand-first with headroom-proportional slack: each zone is granted
  /// its measured demand (scaled down proportionally when the facility
  /// cannot cover the sum), then the remaining budget is divided in
  /// proportion to remaining nameplate headroom.
  kHeadroomAware,
};

const char* glb_policy_name(GlobalLbPolicy policy);
const char* divider_name(DividerKind kind);

/// One zone: a full cluster plus its site-level weight.
struct ZoneConfig {
  cluster::ClusterConfig cluster;
  /// GLB weight (kWeighted) and static-divider share. Must be positive.
  double weight = 1.0;
};

/// Everything needed to stand up a site.
///
/// One zone is the paper's single cluster, and the site reduces to it:
/// the zone keeps `ClusterConfig::zone == -1` (no zone labels or ".zoneN"
/// suffixes), `edge_sink()` is the zone's own sink (no GLB hop), its
/// share is the facility budget with no divider periodic, no `site.*`
/// instrument or series is registered, and `request_metrics()` is the
/// zone's own recorder. Divider, policy, weight and reapportion period
/// then have no effect.
struct SiteConfig {
  std::vector<ZoneConfig> zones;
  /// Shared facility supply divided across zones. When zero, defaults to
  /// the sum of the zones' own provisioned budgets.
  Watts facility_budget{0.0};
  DividerKind divider = DividerKind::kStatic;
  GlobalLbPolicy policy = GlobalLbPolicy::kWeighted;
  /// How often the divider re-applies zone budgets. The reapportion
  /// periodic is registered after every zone's management slot, so at a
  /// shared boundary zones settle their books before budgets move.
  Duration reapportion_period = 5 * kSecond;
};

/// Divider input: one zone's live electrical signals.
struct ZoneSignal {
  double weight = 1.0;
  /// Average demand over the zone's last completed slot.
  Watts demand{0.0};
  /// Aggregate nameplate of the zone's fleet.
  Watts nameplate{0.0};
  bool in_outage = false;
};

/// Floor applied to every zone's share: a zone is never starved below
/// this, keeping `PowerPlane::set_budget` valid even when a divider
/// would assign it nothing (e.g. zero measured demand).
inline constexpr Watts kMinZoneBudget{1.0};

/// Pure division function: returns one share per zone, each at least
/// `kMinZoneBudget`, summing to `facility` up to the applied floors.
/// Exposed for tests and for sweep axes over divider kinds.
std::vector<Watts> divide_budget(DividerKind kind, Watts facility,
                                 const std::vector<ZoneSignal>& zones);

/// N zones behind a global load balancer sharing one facility budget.
class Site {
 public:
  Site(sim::Engine& engine, const workload::Catalog& catalog,
       SiteConfig config);
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  // --- topology ---
  std::size_t num_zones() const { return 1 + other_zones_.size(); }
  cluster::Cluster& zone(std::size_t i) {
    return i == 0 ? *first_zone_ : *other_zones_[i - 1];
  }
  const cluster::Cluster& zone(std::size_t i) const {
    return i == 0 ? *first_zone_ : *other_zones_[i - 1];
  }
  sim::Engine& engine() { return engine_; }
  /// The site's settings; each zone's cluster settings were moved into
  /// that zone and read back through `zone(i).config()`.
  const SiteConfig& config() const { return config_; }

  // --- request path ---
  /// Edge entry point: the global load balancer picks a zone and hands
  /// the request to that zone's data plane.
  void ingest(workload::Request&& request);
  /// Sink adapter for TrafficGenerator (site must outlive it); with one
  /// zone, that zone's own sink.
  workload::RequestSink edge_sink();
  /// Pinned sink bypassing the GLB — models traffic that enters through
  /// one zone's regional front door (zone-concentrated DOPE floods).
  workload::RequestSink zone_sink(std::size_t zone);

  /// The zone the GLB would pick for `request` right now (does not
  /// mutate balancer state; exposed for tests).
  std::size_t peek_zone(const workload::Request& request) const;

  // --- power ---
  Watts facility_budget() const { return facility_budget_; }
  /// Last applied per-zone shares (config order).
  const std::vector<Watts>& zone_budgets() const { return zone_budgets_; }
  /// Recomputes shares from live zone signals and applies them through
  /// each zone's power plane. Also runs on the reapportion periodic.
  void reapportion();
  /// Times the divider has run (including the constructor's first pass).
  std::uint64_t reapportion_count() const { return reapportions_; }

  // --- metrics ---
  /// Site-wide request metrics (every zone's terminal records fold in);
  /// with one zone, that zone's own recorder.
  metrics::RequestMetrics& request_metrics();
  /// Sum of the zones' energy accounts — site-level conservation holds
  /// exactly: aggregate load energy == sum of zone load energies.
  metrics::EnergyAccount aggregate_energy() const;
  /// Exact aggregate energy consumed by every server in every zone.
  Joules total_energy() const;

  /// Convenience: advances the shared engine by `d`.
  void run_for(Duration d);

 private:
  static void validate(const SiteConfig& config);
  std::vector<ZoneSignal> signals() const;
  std::size_t select_zone(const workload::Request& request);
  std::size_t weighted_pick(bool commit);
  std::size_t least_loaded_pick();
  std::size_t affinity_pick(workload::SourceId source) const;
  void apply_budgets(std::vector<Watts> shares);

  sim::Engine& engine_;
  SiteConfig config_;
  /// Zone 0 is built in place, so a one-zone site costs no more to set
  /// up than a bare Cluster: a heap Cluster is a large-bin request, on
  /// which glibc malloc consolidates its fastbins. Zones 1.. are boxed.
  std::optional<cluster::Cluster> first_zone_;
  std::vector<std::unique_ptr<cluster::Cluster>> other_zones_;

  Watts facility_budget_{0.0};
  std::vector<Watts> zone_budgets_;
  std::uint64_t reapportions_ = 0;

  /// Fed only with two or more zones: it keeps a second copy of every
  /// latency sample, which a one-zone site does not need.
  metrics::RequestMetrics request_metrics_;

  /// Smooth weighted round-robin accumulators (kWeighted, two or more
  /// zones).
  mutable std::vector<double> wrr_current_;

  // Observability (null when no hub is attached to the engine).
  std::vector<obs::Counter*> obs_routed_;
  std::vector<obs::Gauge*> obs_zone_budget_;
  /// Per-zone budget-share series (empty unless the hub has a
  /// TimeSeriesStore); sampled on every divider pass.
  std::vector<obs::Series*> ts_zone_budget_;

  sim::PeriodicHandle divider_task_;
};

}  // namespace dope::site
