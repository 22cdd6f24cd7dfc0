// Abstract backend (compute node) interface seen by the network layer.
//
// The load balancer and routers only need load visibility and a submit
// path; `server::ServerNode` implements this interface. Keeping the
// interface here avoids a dependency cycle between net and server.
//
// Load visibility is a published key, not a virtual query: the backend
// republishes `lb_key()` after every change to its load or its
// willingness to accept, so a balancer scanning a 75-node pool reads one
// integer per node instead of making two virtual calls.
#pragma once

#include <cstdint>
#include <limits>

#include "workload/request.hpp"

namespace dope::net {

/// A dispatch target for the load balancer.
class Backend {
 public:
  /// The key of a backend that refuses new work (drained / unhealthy /
  /// parked / powered off). Compares greater than every load.
  static constexpr std::uint32_t kOff =
      std::numeric_limits<std::uint32_t>::max();

  virtual ~Backend() = default;

  /// Stable identifier (server index within the cluster).
  virtual int backend_id() const = 0;

  /// The load-balancing signal: requests queued plus in service while
  /// the backend accepts, `kOff` while it does not.
  std::uint32_t lb_key() const { return lb_key_; }

  /// Hands a request to the node. The node owns it from here and will
  /// eventually emit a completion/drop record.
  virtual void submit(workload::Request&& request) = 0;

 protected:
  /// Publishes the key; implementations call this after every change to
  /// their load or accepting state, before anything else can observe it.
  void set_lb_key(std::uint32_t key) { lb_key_ = key; }

 private:
  std::uint32_t lb_key_ = kOff;
};

}  // namespace dope::net
