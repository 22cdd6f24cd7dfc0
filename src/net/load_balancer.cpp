#include "net/load_balancer.hpp"

#include <string>

#include "common/expect.hpp"
#include "obs/hub.hpp"
#include "sim/engine.hpp"

namespace dope::net {

LoadBalancer::LoadBalancer(LbPolicy policy, std::vector<Backend*> pool,
                           std::uint64_t seed)
    : policy_(policy), pool_(std::move(pool)), rng_(seed) {
  DOPE_REQUIRE(!pool_.empty(), "load balancer pool must not be empty");
  for (const auto* b : pool_) {
    DOPE_REQUIRE(b != nullptr, "null backend in pool");
  }
}

void LoadBalancer::bind_obs(obs::Hub* hub, const char* pool, int zone) {
  if (hub == nullptr) return;
  obs::Labels labels{{"pool", pool}};
  if (zone >= 0) labels.emplace_back("zone", std::to_string(zone));
  obs_selected_ = &hub->registry().counter("net.lb_selected", labels);
  obs_no_backend_ = &hub->registry().counter("net.lb_no_backend", labels);
}

void LoadBalancer::bind_spans(sim::Engine* engine, obs::SpanTracer* spans,
                              const char* pool, int zone) {
  if (engine == nullptr || spans == nullptr) return;
  span_engine_ = engine;
  spans_ = spans;
  span_pool_ = pool;
  span_zone_ = zone;
}

Backend* LoadBalancer::select(const workload::Request& request) {
  Backend* chosen = do_select(request);
  if (obs_selected_ != nullptr) {
    (chosen != nullptr ? obs_selected_ : obs_no_backend_)->inc();
  }
  if (spans_ != nullptr) {
    obs::Span span;
    span.id = obs::span_id_for(request.id, obs::SpanKind::kLbPick);
    span.kind = obs::SpanKind::kLbPick;
    span.source_id = request.source;
    span.url_class = request.type;
    if (chosen != nullptr) span.server = chosen->backend_id();
    span.zone = span_zone_;
    span.label = span_pool_;
    span.outcome = chosen != nullptr ? "selected" : "no_backend";
    spans_->instant(std::move(span), span_engine_->now());
  }
  return chosen;
}

Backend* LoadBalancer::do_select(const workload::Request& request) {
  const std::size_t n = pool_.size();
  switch (policy_) {
    case LbPolicy::kRoundRobin: {
      for (std::size_t probe = 0; probe < n; ++probe) {
        Backend* b = pool_[rr_next_];
        rr_next_ = (rr_next_ + 1) % n;
        if (b->lb_key() != Backend::kOff) return b;
      }
      return nullptr;
    }
    case LbPolicy::kLeastLoaded: {
      // Strict `<` in pool order: ties go to the lowest position, and
      // kOff never beats the initial kOff, so an all-off pool yields null.
      Backend* best = nullptr;
      std::uint32_t best_key = Backend::kOff;
      for (Backend* b : pool_) {
        const std::uint32_t key = b->lb_key();
        if (key < best_key) {
          best = b;
          best_key = key;
        }
      }
      return best;
    }
    case LbPolicy::kRandom: {
      for (std::size_t probe = 0; probe < 2 * n; ++probe) {
        Backend* b = pool_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
        if (b->lb_key() != Backend::kOff) return b;
      }
      // Fall back to a linear scan if random probing keeps missing.
      for (Backend* b : pool_) {
        if (b->lb_key() != Backend::kOff) return b;
      }
      return nullptr;
    }
    case LbPolicy::kSourceHash: {
      std::uint64_t h = request.source;
      h = splitmix64(h);
      const std::size_t start = static_cast<std::size_t>(h % n);
      for (std::size_t probe = 0; probe < n; ++probe) {
        Backend* b = pool_[(start + probe) % n];
        if (b->lb_key() != Backend::kOff) return b;
      }
      return nullptr;
    }
  }
  return nullptr;
}

bool LoadBalancer::dispatch(workload::Request&& request) {
  Backend* b = select(request);
  if (b == nullptr) return false;
  ++dispatched_;
  b->submit(std::move(request));
  return true;
}

}  // namespace dope::net
