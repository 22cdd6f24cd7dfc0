// PDF — Power-Driven Forwarding (the NLB half of Anti-DOPE).
//
// Splits the backend fleet into a *suspect pool* and an *innocent pool*
// and routes by suspect-list classification of the request's URL class.
// High-power requests — attacker traffic, plus the minority of legitimate
// heavy requests — land on the suspect pool, so later differentiated
// throttling hits attackers while the innocent pool keeps running at full
// speed. Legitimate heavy requests pay a price only while an attack is
// actually being suppressed (paper Section 5.4's deliberate KISS
// trade-off).
#pragma once

#include <vector>

#include "antidope/suspect_list.hpp"
#include "net/backend.hpp"
#include "net/load_balancer.hpp"
#include "workload/request.hpp"

namespace dope::obs {
class SpanTracer;
}  // namespace dope::obs

namespace dope::sim {
class Engine;
}  // namespace dope::sim

namespace dope::antidope {

/// URL-classified two-pool router; each pool balances least-loaded.
class PdfRouter {
 public:
  PdfRouter(SuspectList suspects, std::vector<net::Backend*> suspect_pool,
            std::vector<net::Backend*> innocent_pool);

  /// Chooses a backend. Suspicious requests never spill into the innocent
  /// pool (isolation is the point); innocent requests may spill into the
  /// suspect pool only when the innocent pool is entirely unavailable.
  net::Backend* route(const workload::Request& request);

  const SuspectList& suspects() const { return suspects_; }

  /// Swaps in a new classification (online learning); pool membership is
  /// unchanged — only which URL classes route to the suspect pool.
  void update_suspects(SuspectList suspects);
  bool is_suspect(const workload::Request& request) const {
    return suspects_.suspicious(request.type);
  }

  std::uint64_t suspect_routed() const { return suspect_routed_; }
  std::uint64_t innocent_routed() const { return innocent_routed_; }

  /// Binds span emission on both pool balancers (labels "suspect" /
  /// "innocent"). Span-only: no metrics, so exports without spans are
  /// byte-identical with or without this call.
  void bind_spans(sim::Engine* engine, obs::SpanTracer* spans);

 private:
  SuspectList suspects_;
  net::LoadBalancer suspect_lb_;
  net::LoadBalancer innocent_lb_;
  std::uint64_t suspect_routed_ = 0;
  std::uint64_t innocent_routed_ = 0;
};

}  // namespace dope::antidope
