#include "antidope/oracle.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace dope::antidope {

OracleScheme::OracleScheme(double isolation_fraction)
    : isolation_fraction_(isolation_fraction) {
  DOPE_REQUIRE(isolation_fraction > 0.0 && isolation_fraction < 1.0,
               "isolation fraction must be in (0, 1)");
}

void OracleScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  auto nodes = cluster.data().servers();
  DOPE_REQUIRE(nodes.size() >= 2, "Oracle needs at least two servers");
  const auto k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          static_cast<double>(nodes.size()) * isolation_fraction_ + 0.5),
      1, nodes.size() - 1);
  const auto split = nodes.begin() + static_cast<long>(k);
  isolated_lb_ = std::make_unique<net::LoadBalancer>(
      net::LbPolicy::kLeastLoaded,
      std::vector<net::Backend*>(nodes.begin(), split));
  clean_lb_ = std::make_unique<net::LoadBalancer>(
      net::LbPolicy::kLeastLoaded,
      std::vector<net::Backend*>(split, nodes.end()));
  dpm_.emplace(std::vector<std::vector<server::ServerNode*>>{
                   {nodes.begin(), split}, {split, nodes.end()}},
               cluster.ladder(), cluster.engine().obs());
}

net::Backend* OracleScheme::route(const workload::Request& request) {
  // The one deliberately impossible read in the codebase (see header).
  if (request.ground_truth_attack) return isolated_lb_->select(request);
  net::Backend* b = clean_lb_->select(request);
  return b != nullptr ? b : isolated_lb_->select(request);
}

void OracleScheme::detach() {
  dpm_.reset();
  isolated_lb_.reset();
  clean_lb_.reset();
  ControlStage::detach();
}

void OracleScheme::on_slot(Time now, Duration slot) {
  dpm_->on_slot(now, slot, *cluster_);
}

}  // namespace dope::antidope
