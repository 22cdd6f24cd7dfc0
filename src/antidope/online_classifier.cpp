#include "antidope/online_classifier.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace dope::antidope {

namespace {

/// Per-request power at/above which a type becomes suspect.
constexpr Watts kSuspectThreshold{10.0};
/// Hysteresis: an already-suspect type stays suspect until its EWMA
/// falls below kSuspectThreshold * (1 - kHysteresis).
constexpr double kHysteresis = 0.2;
/// EWMA smoothing factor per observation batch.
constexpr double kAlpha = 0.2;
/// Observations required before a type's estimate is trusted.
constexpr std::size_t kMinObservations = 10;

}  // namespace

OnlineClassifier::OnlineClassifier(std::size_t types, SuspectList initial)
    : ewma_(types, Watts{0.0}),
      count_(types, 0),
      flags_(types, false),
      suspects_(std::move(initial)) {
  DOPE_REQUIRE(types > 0, "need at least one type");
  DOPE_REQUIRE(suspects_.size() == types,
               "initial suspect list size mismatch");
  for (std::size_t t = 0; t < types; ++t) {
    flags_[t] = suspects_.suspicious(static_cast<workload::RequestTypeId>(t));
  }
}

OnlineClassifier OnlineClassifier::untrained(std::size_t types) {
  return OnlineClassifier(types, SuspectList(std::vector<bool>(types, false)));
}

void OnlineClassifier::observe(const server::ServerNode& node) {
  const unsigned active = node.active_count();
  if (active == 0) return;
  const Watts idle = node.power_model().idle_power(node.level());
  const Watts above_idle =
      std::max(Watts{0.0}, node.current_power() - idle);
  const Watts share = above_idle / static_cast<double>(active);
  node.visit_active([this, share](workload::RequestTypeId type) {
    ingest(type, share);
  });
}

void OnlineClassifier::ingest(workload::RequestTypeId type,
                              Watts per_request_power) {
  DOPE_REQUIRE(type < ewma_.size(), "type id out of range");
  DOPE_REQUIRE(per_request_power >= Watts{0.0},
               "power must be non-negative");
  Watts& ewma = ewma_[type];
  if (count_[type] == 0) {
    ewma = per_request_power;
  } else {
    ewma += kAlpha * (per_request_power - ewma);
  }
  ++count_[type];
  if (count_[type] >= kMinObservations) reclassify(type);
}

void OnlineClassifier::reclassify(workload::RequestTypeId type) {
  const Watts up = kSuspectThreshold;
  const Watts down = up * (1.0 - kHysteresis);
  const bool was = flags_[type];
  bool now = was;
  if (!was && ewma_[type] >= up) now = true;
  if (was && ewma_[type] < down) now = false;
  if (now != was) {
    flags_[type] = now;
    suspects_ = SuspectList(std::vector<bool>(flags_.begin(), flags_.end()));
    ++reclassifications_;
  }
}

Watts OnlineClassifier::estimate(workload::RequestTypeId type) const {
  DOPE_REQUIRE(type < ewma_.size(), "type id out of range");
  return count_[type] ? ewma_[type] : Watts{0.0};
}

std::size_t OnlineClassifier::observations(
    workload::RequestTypeId type) const {
  DOPE_REQUIRE(type < count_.size(), "type id out of range");
  return count_[type];
}

}  // namespace dope::antidope
