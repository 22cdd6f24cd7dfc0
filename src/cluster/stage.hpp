// Control-stage interface: the one peak-power manager a cluster runs.
//
// A cluster owns at most one stage (`Cluster::install_scheme`), which
// plugs into it at three points:
//   - `admit`: pre-routing admission filter — a refusal drops the
//     request (the Token baseline sheds packets here);
//   - `route`: request-to-server routing — a non-null backend wins
//     (Anti-DOPE's power-driven forwarding overrides this); nullptr
//     leaves the pick to the data plane's default load balancer;
//   - `on_slot`: the per-slot enforcement step, invoked after the power
//     plane has settled the slot's accounts — compare demand against the
//     budget and actuate DVFS and/or the battery.
// A cluster with no stage admits everything, routes through the default
// balancer and never throttles (the paper's unmanaged "None" scheme).
//
// Stages see only what a real power manager sees: the cluster's plane
// interfaces (`data()`, `power()`) plus read-only context (`engine()`,
// `catalog()`, `config()`, `ladder()`, `zone()`). They must never reach
// around the planes into cluster internals (enforced by the
// `stage-plane` dope_lint rule) and must never read
// `Request::ground_truth_attack`.
//
// Lifecycle: the cluster calls `attach` once, on installation, and
// destroys the stage when another is installed or the cluster itself
// goes, so a stage's cached cluster pointers never outlive the cluster.
#pragma once

#include <string>

#include "common/units.hpp"
#include "net/backend.hpp"
#include "workload/request.hpp"

namespace dope::cluster {

class Cluster;

/// Abstract control stage (peak-power management policy, admission
/// filter, router, ...).
class ControlStage {
 public:
  virtual ~ControlStage();

  /// Display name ("Capping", "Shaving", "Token", "Anti-DOPE", ...).
  virtual std::string name() const = 0;

  /// Set-up hook, called once when the cluster installs the stage; the
  /// cluster owns the stage and outlives it. Overrides must call the
  /// base first.
  virtual void attach(Cluster& cluster);

  /// Admission control before routing; false drops the request.
  virtual bool admit(const workload::Request& request) {
    (void)request;
    return true;
  }

  /// Custom routing; nullptr leaves the pick to the default load
  /// balancer.
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
