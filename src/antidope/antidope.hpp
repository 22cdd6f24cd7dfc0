// Anti-DOPE: request-aware power management (the paper's contribution).
//
// Couples two halves that conventional data centers keep apart:
//
//   PDF  (network side)  — classify by URL power class, isolate suspect
//                          requests on a dedicated server pool;
//   RPM  (power side)    — on a budget violation, run Differentiated
//                          Power Management (Algorithm 1): let the battery
//                          bridge the actuation transient, then throttle
//                          the *suspect pool only*, searching per-node
//                          levels TL(p,q) satisfying Σ qᵢ·Pᵢ(f) ≤ B₀
//                          (Eq. 1). The innocent pool is touched only as
//                          a last resort (`PooledDpm`, dpm.hpp).
//
// The result: a DOPE flood saturates and throttles the suspect pool while
// legitimate (mostly low-power) traffic keeps its full frequency — 44 %
// shorter mean response time and 68 % better p90 in the paper's trace
// evaluation versus conventional capping.
#pragma once

#include <memory>
#include <optional>

#include "antidope/dpm.hpp"
#include "antidope/online_classifier.hpp"
#include "antidope/pdf.hpp"
#include "antidope/suspect_list.hpp"
#include "cluster/cluster.hpp"
#include "cluster/stage.hpp"

namespace dope::obs {
class Counter;
class Hub;
}  // namespace dope::obs

namespace dope::antidope {

/// Anti-DOPE tuning parameters.
struct AntiDopeConfig {
  /// Per-request power (watts at f_max) above which a URL class is
  /// forwarded to the suspect pool. 10 W separates Colla-Filt/K-means/
  /// Word-Count from the light request types in the standard catalog.
  Watts suspect_power_threshold{10.0};
  /// Fraction of servers dedicated to the suspect pool (at least one).
  double suspect_pool_fraction = 0.25;
  /// Pre-built suspect list (e.g. from measured offline profiling);
  /// when absent, the list is derived from the catalog at attach time.
  std::optional<SuspectList> suspect_list;
  /// Learn per-URL power online from node telemetry and keep the suspect
  /// list current — catches attack URLs that were never profiled offline.
  bool online_learning = false;
};

/// The Anti-DOPE power scheme; install into a Cluster.
class AntiDopeScheme final : public cluster::ControlStage {
 public:
  explicit AntiDopeScheme(AntiDopeConfig config = {});

  std::string name() const override { return "Anti-DOPE"; }
  void attach(cluster::Cluster& cluster) override;
  net::Backend* route(const workload::Request& request) override;
  void on_slot(Time now, Duration slot) override;

  const PdfRouter& router() const { return *router_; }
  const SuspectList& suspects() const { return router_->suspects(); }
  std::size_t suspect_pool_size() const {
    return dpm_.value().levels(0).size();
  }

  /// Watts the battery delivered in the most recent slot (telemetry).
  Watts last_battery_power() const { return last_battery_power_; }
  /// Lowest suspect-pool level.
  power::DvfsLevel suspect_level() const { return dpm_.value().level(0); }
  /// Lowest innocent-pool level (max unless last-resort throttling hit).
  power::DvfsLevel innocent_level() const { return dpm_.value().level(1); }

  /// The online classifier, when enabled (nullptr otherwise).
  const OnlineClassifier* classifier() const { return classifier_.get(); }

 private:
  void trace_throttle(Time now, const DpmSlot& slot) const;

  AntiDopeConfig config_;
  std::unique_ptr<PdfRouter> router_;
  /// Pools [suspect, innocent].
  std::optional<PooledDpm> dpm_;
  Watts last_battery_power_{0.0};
  std::unique_ptr<OnlineClassifier> classifier_;
  obs::Hub* hub_ = nullptr;
  obs::Counter* obs_tl_iterations_ = nullptr;
  obs::Counter* obs_throttle_slots_ = nullptr;
};

}  // namespace dope::antidope
