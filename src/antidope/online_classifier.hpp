// Online power classification of URL classes.
//
// The paper builds the suspect list from *offline* profiling; its
// discussion notes the design "can be easily extended to the other types
// of application-layer DoS attacks by simply changing the monitored
// statistical features". This module implements that extension: a
// classifier that learns per-URL power *at runtime* from node telemetry,
// so URL classes that were never profiled (new endpoints, novel attack
// vectors) are flagged as soon as they reveal themselves.
//
// Telemetry is deliberately limited to what a node-local agent really
// has: its measured electrical power, its idle-power estimate, and the
// URL classes currently in service (`ServerNode::visit_active`). Each
// observation attributes the node's above-idle power evenly across the
// in-flight requests and folds the per-type share into an exponential
// moving average. Suspicion flips with hysteresis so borderline types do
// not flap between pools.
#pragma once

#include <cstddef>
#include <vector>

#include "antidope/suspect_list.hpp"
#include "common/units.hpp"
#include "server/node.hpp"
#include "workload/catalog.hpp"

namespace dope::antidope {

/// Learns per-URL-class power online and maintains a suspect list.
class OnlineClassifier {
 public:
  /// `types`: catalog size. `initial`: prior flags (e.g. from offline
  /// profiling); types keep their prior until enough evidence arrives.
  OnlineClassifier(std::size_t types, SuspectList initial);

  /// Convenience: start with every type innocent (nothing profiled).
  static OnlineClassifier untrained(std::size_t types);

  /// Ingests one node's telemetry sample: measured power, the node's
  /// idle-power estimate at its current level, and its active set.
  void observe(const server::ServerNode& node);

  /// Folds a raw (type -> measured per-request watts) observation in;
  /// exposed for tests and alternative telemetry pipelines.
  void ingest(workload::RequestTypeId type, Watts per_request_power);

  /// Current belief.
  const SuspectList& suspects() const { return suspects_; }
  bool suspicious(workload::RequestTypeId type) const {
    return suspects_.suspicious(type);
  }

  /// Learned per-request power estimate (0 until observed).
  Watts estimate(workload::RequestTypeId type) const;
  std::size_t observations(workload::RequestTypeId type) const;

  /// Number of types whose suspicion flag changed so far.
  std::size_t reclassifications() const { return reclassifications_; }

 private:
  void reclassify(workload::RequestTypeId type);

  std::vector<Watts> ewma_;
  std::vector<std::size_t> count_;
  std::vector<bool> flags_;
  SuspectList suspects_;
  std::size_t reclassifications_ = 0;
};

}  // namespace dope::antidope
