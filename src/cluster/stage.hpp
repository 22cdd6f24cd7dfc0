// Control-stage interface: one element of a cluster's control plane.
//
// The control plane is an *ordered, deterministic pipeline* of stages.
// Each stage plugs into the cluster at three points:
//   - `admit`: chainable pre-routing admission filter — every stage must
//     admit a request, in installation order; the first refusal drops it
//     (the Token baseline sheds packets here);
//   - `route`: chainable request-to-server routing — stages are asked in
//     installation order and the first non-null backend wins (Anti-DOPE's
//     power-driven forwarding overrides this); when every stage declines,
//     the data plane's default load balancer picks;
//   - `on_slot`: the per-slot enforcement step, invoked for every stage
//     in installation order after the power plane has settled the slot's
//     accounts — compare demand against the budget and actuate DVFS
//     and/or the battery.
//
// Stages see only what a real power manager sees: the cluster's plane
// interfaces (`data()`, `power()`, `control()`) plus read-only context
// (`engine()`, `catalog()`, `config()`, `ladder()`, `zone()`). They must
// never reach around the planes into cluster internals (enforced by the
// `stage-plane` dope_lint rule) and must never read
// `Request::ground_truth_attack`.
//
// Lifecycle: `attach` binds a stage to exactly one cluster; `detach`
// releases it. Re-attaching an attached stage to a *different* cluster
// throws — a stage handed from one cluster to another (as a sweep reusing
// scheme objects could) must be detached first, so stale `Cluster*`
// pointers cannot dangle. The owning control plane detaches every stage
// on destruction and on replacement.
#pragma once

#include <string>

#include "common/units.hpp"
#include "net/backend.hpp"
#include "workload/request.hpp"

namespace dope::cluster {

class Cluster;

/// Abstract control-plane stage (peak-power management policy, admission
/// filter, router, autoscaler, health monitor, ...).
class ControlStage {
 public:
  virtual ~ControlStage();

  /// Display name ("Capping", "Shaving", "Token", "Anti-DOPE", ...).
  virtual std::string name() const = 0;

  /// Called once when installed into a cluster; the cluster outlives the
  /// stage's use of it (the control plane detaches on teardown).
  /// Overrides must call the base first. Throws when the stage is still
  /// attached to a different cluster.
  virtual void attach(Cluster& cluster);

  /// Called when the stage is removed, replaced, or its cluster is torn
  /// down. Overrides must drop every cached cluster-derived pointer
  /// (node lists, routers, hubs) and call the base.
  virtual void detach();

  /// True while bound to a cluster.
  bool attached() const { return cluster_ != nullptr; }

  /// Admission control before routing; false drops the request.
  virtual bool admit(const workload::Request& request) {
    (void)request;
    return true;
  }

  /// Custom routing; nullptr passes to the next stage (then the default
  /// load balancer).
  virtual net::Backend* route(const workload::Request& request) {
    (void)request;
    return nullptr;
  }

  /// Per-slot budget enforcement. `now` is the slot boundary time.
  virtual void on_slot(Time now, Duration slot) = 0;

 protected:
  Cluster* cluster_ = nullptr;
};

}  // namespace dope::cluster
