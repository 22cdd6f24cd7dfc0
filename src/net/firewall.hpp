// Perimeter firewall modelled on DDoS-deflate.
//
// DDoS-deflate periodically polls `netstat`, counts connections per source
// address, and bans sources whose rate exceeds a configured threshold (the
// paper uses the default 150 requests/second). Two properties matter for
// the DOPE threat model and are modelled faithfully:
//
//  1. *Thresholding is per source.* A botnet that spreads its traffic over
//     enough agents keeps every agent below the threshold and is never
//     banned — the DOPE operating region of Fig. 11.
//  2. *Detection lags.* The poll interval (plus an optional multi-strike
//     requirement) means a flood runs unhindered for a short window, which
//     is why Fig. 10 shows early power spikes even with the firewall on.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "workload/request.hpp"

namespace dope::obs {
class Counter;
class Hub;
class SpanTracer;
}  // namespace dope::obs

namespace dope::net {

/// Firewall tuning parameters.
struct FirewallConfig {
  /// Per-source request rate that triggers a ban (requests/second).
  double threshold_rps = 150.0;
  /// How often the source counters are polled (netstat cron granularity).
  Duration check_interval = 5 * kSecond;
  /// Consecutive over-threshold polls required before banning.
  unsigned required_strikes = 1;
  /// How long a banned source stays blocked.
  Duration ban_duration = 10 * kMinute;
};

/// Stateful per-source rate-threshold firewall.
class Firewall {
 public:
  /// `zone` stamps the firewall's metrics labels, trace events, and
  /// verdict spans; -1 (standalone cluster) suppresses it entirely.
  Firewall(sim::Engine& engine, FirewallConfig config, int zone = -1);
  ~Firewall();

  Firewall(const Firewall&) = delete;
  Firewall& operator=(const Firewall&) = delete;

  const FirewallConfig& config() const { return config_; }

  /// Counts the request against its source and returns whether it passes
  /// (false when the source is currently banned).
  bool admit(const workload::Request& request);

  /// Whether `source` is banned right now.
  bool is_banned(workload::SourceId source) const;

  /// Sources currently banned.
  std::size_t banned_count() const;

  /// Requests rejected so far.
  std::uint64_t blocked() const { return blocked_; }

  /// Total ban decisions made (a source re-banned counts again).
  std::uint64_t total_bans() const { return total_bans_; }

  /// Admitted requests from `source` since the last poll.
  std::uint32_t window_count(workload::SourceId source) const;

  /// Distinct sources admitted since the last poll.
  std::size_t window_sources() const { return window_used_; }

 private:
  /// One source's arrivals in the current window; count 0 marks an empty
  /// cell (a counted source has at least one arrival).
  struct WindowCell {
    workload::SourceId source = 0;
    std::uint32_t count = 0;
  };

  void poll();
  /// The cell holding `source`, or the empty cell where it would go.
  std::size_t window_slot(workload::SourceId source) const;
  /// Doubles the window table (16 cells at first) and reinserts.
  void grow_window();

  sim::Engine& engine_;
  FirewallConfig config_;
  int zone_;
  sim::PeriodicHandle poller_;
  obs::Hub* hub_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;
  obs::Counter* obs_admitted_ = nullptr;
  obs::Counter* obs_blocked_ = nullptr;
  obs::Counter* obs_bans_ = nullptr;
  /// Arrivals per source within the current poll window: open addressing
  /// over a power-of-two table with linear probing, at most half full.
  /// Cleared, never shrunk, at each poll, so a steady source population
  /// stops allocating after the first window.
  std::vector<WindowCell> window_;
  std::size_t window_used_ = 0;
  /// 64 - log2(window_.size()); set by grow_window.
  unsigned window_shift_ = 0;
  /// Consecutive over-threshold polls per source.
  std::unordered_map<workload::SourceId, unsigned> strikes_;
  /// Ban expiry per source.
  std::unordered_map<workload::SourceId, Time> bans_;
  std::uint64_t blocked_ = 0;
  std::uint64_t total_bans_ = 0;
};

}  // namespace dope::net
