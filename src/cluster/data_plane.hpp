// Data plane: the cluster's edge and serving fleet.
//
// Owns the request path —
//
//   generator -> ingest() -> switch -> firewall -> stage.admit
//             -> stage.route -> (default NLB when there is no stage or
//             it declines) -> server queue
//
// — plus the objects on it: the ingress switch, the perimeter firewall,
// the default load balancer, and the server pool. The control stage
// filters and steers traffic *through* this plane (cluster/stage.hpp);
// it never owns edge objects itself.
//
// The data plane is deliberately ignorant of power provisioning: budget,
// battery, breaker, and energy accounting live in the power plane, which
// observes the fleet through `total_power()` / `total_energy()` and
// actuates outages through `power_off_all()` / `power_on_all()`.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "net/firewall.hpp"
#include "net/load_balancer.hpp"
#include "net/switch.hpp"
#include "server/node.hpp"
#include "workload/catalog.hpp"
#include "workload/request.hpp"

namespace dope::obs {
class Counter;
class Hub;
class Series;
class SpanTracer;
}  // namespace dope::obs

namespace dope::cluster {

class Cluster;
struct ClusterConfig;

/// Edge + fleet of one cluster (zone).
class DataPlane {
 public:
  /// Builds the fleet and edge from `config`. `owner` provides the
  /// engine, catalog, and the terminal-record path; it outlives the
  /// plane.
  DataPlane(Cluster& owner, const ClusterConfig& config);

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  // --- server pool ---
  std::vector<server::ServerNode*> servers();
  server::ServerNode& server(std::size_t i);
  std::size_t num_servers() const { return nodes_.size(); }

  /// Instantaneous aggregate power right now.
  Watts total_power() const;
  /// Exact aggregate energy consumed by all servers so far.
  Joules total_energy() const;

  /// Hard power loss of the whole fleet (facility breaker trip).
  void power_off_all();
  /// Begins fleet-wide recovery; serving resumes after `reboot`.
  void power_on_all(Duration reboot);

  // --- edge objects ---
  net::Firewall* firewall() { return firewall_ ? &*firewall_ : nullptr; }
  net::Switch* network_switch() { return switch_ ? &*switch_ : nullptr; }
  net::LoadBalancer& default_balancer() { return *balancer_; }

  // --- request path ---
  /// Edge entry point: runs the full pipeline above.
  void ingest(workload::Request&& request);
  /// Drops a request at the edge with `outcome` (trace + terminal
  /// record through the owner).
  void drop(workload::Request&& request, workload::RequestOutcome outcome);

  // --- wiring (Cluster construction only) ---
  /// Binds the edge forwarding counters (`net.forwarded`).
  void bind_obs(obs::Hub* hub);
  /// Binds the default balancer's counters and the span tracer (kept
  /// separate from `bind_obs` so the Cluster preserves the historical
  /// registration order).
  void bind_balancer_obs(obs::Hub* hub);
  /// Samples the serving-side per-slot series (queue depth, active
  /// execution slots, firewall bans) into the hub's TimeSeriesStore.
  /// No-op unless one is attached.
  void sample_timeseries(Time now);

 private:
  void trace_forwarded(const workload::Request& request, int server,
                       const char* pool);
  void trace_dropped(const workload::Request& request, const char* reason);

  Cluster& owner_;
  int zone_;
  std::vector<std::unique_ptr<server::ServerNode>> nodes_;
  std::optional<net::Switch> switch_;
  std::optional<net::Firewall> firewall_;
  std::unique_ptr<net::LoadBalancer> balancer_;

  obs::Hub* hub_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;
  obs::Counter* obs_forwarded_scheme_ = nullptr;
  obs::Counter* obs_forwarded_default_ = nullptr;

  // Per-slot time series (null unless the hub has a TimeSeriesStore).
  obs::Series* ts_queue_depth_ = nullptr;
  obs::Series* ts_active_slots_ = nullptr;
  obs::Series* ts_firewall_bans_ = nullptr;
};

}  // namespace dope::cluster
