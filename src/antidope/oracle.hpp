// Oracle isolation scheme — an upper bound, NOT a deployable defense.
//
// This scheme reads `Request::ground_truth_attack`, which no real system
// can observe, and routes attacker traffic to an isolation pool with
// perfect accuracy. It exists purely as a research yardstick: the gap
// between Anti-DOPE (URL-class heuristics) and this oracle is exactly the
// collateral damage Anti-DOPE's KISS classification accepts — legitimate
// heavy requests sharing the suspect pool. Used by the ablation benches.
#pragma once

#include <memory>
#include <optional>

#include "antidope/dpm.hpp"
#include "cluster/cluster.hpp"
#include "cluster/stage.hpp"
#include "net/load_balancer.hpp"

namespace dope::antidope {

/// Perfect-knowledge isolation + differentiated throttling.
class OracleScheme final : public cluster::ControlStage {
 public:
  /// `isolation_fraction`: share of servers quarantining attack traffic.
  explicit OracleScheme(double isolation_fraction = 0.25);

  std::string name() const override { return "Oracle"; }
  void attach(cluster::Cluster& cluster) override;
  void detach() override;
  net::Backend* route(const workload::Request& request) override;
  void on_slot(Time now, Duration slot) override;

 private:
  double isolation_fraction_;
  std::unique_ptr<net::LoadBalancer> isolated_lb_;
  std::unique_ptr<net::LoadBalancer> clean_lb_;
  /// Pools [isolated, clean].
  std::optional<PooledDpm> dpm_;
};

}  // namespace dope::antidope
