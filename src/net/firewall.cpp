#include "net/firewall.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "common/expect.hpp"
#include "common/log.hpp"
#include "obs/hub.hpp"

namespace dope::net {

Firewall::Firewall(sim::Engine& engine, FirewallConfig config, int zone)
    : engine_(engine), config_(config), zone_(zone) {
  DOPE_REQUIRE(config_.threshold_rps > 0, "threshold must be positive");
  DOPE_REQUIRE(config_.check_interval > 0, "check interval must be positive");
  DOPE_REQUIRE(config_.required_strikes >= 1, "need at least one strike");
  DOPE_REQUIRE(config_.ban_duration > 0, "ban duration must be positive");
  hub_ = engine_.obs();
  if (hub_ != nullptr) {
    auto& reg = hub_->registry();
    obs::Labels labels;
    if (zone_ >= 0) labels.emplace_back("zone", std::to_string(zone_));
    obs_admitted_ = &reg.counter("net.fw_admitted", labels);
    obs_blocked_ = &reg.counter("net.fw_blocked", labels);
    obs_bans_ = &reg.counter("net.fw_bans", labels);
    spans_ = hub_->spans();
  }
  poller_ = engine_.every(config_.check_interval, [this] { poll(); });
}

Firewall::~Firewall() { poller_.stop(); }

bool Firewall::admit(const workload::Request& request) {
  const bool banned = is_banned(request.source);
  if (spans_ != nullptr) {
    obs::Span span;
    span.id = obs::span_id_for(request.id, obs::SpanKind::kFirewall);
    span.kind = obs::SpanKind::kFirewall;
    span.source_id = request.source;
    span.url_class = request.type;
    span.zone = zone_;
    span.outcome = banned ? "blocked" : "pass";
    spans_->instant(std::move(span), engine_.now());
  }
  if (banned) {
    ++blocked_;
    if (obs_blocked_ != nullptr) obs_blocked_->inc();
    return false;
  }
  if (2 * (window_used_ + 1) > window_.size()) grow_window();
  WindowCell& cell = window_[window_slot(request.source)];
  if (cell.count == 0) {
    cell.source = request.source;
    ++window_used_;
  }
  ++cell.count;
  if (obs_admitted_ != nullptr) obs_admitted_->inc();
  return true;
}

std::size_t Firewall::window_slot(workload::SourceId source) const {
  // Fibonacci hashing: the top bits of a golden-ratio multiply spread
  // sequential agent ids over the table. The table is never full, so
  // the probe always ends.
  const std::size_t mask = window_.size() - 1;
  auto i = static_cast<std::size_t>(
      (std::uint64_t{source} * 0x9E3779B97F4A7C15ULL) >> window_shift_);
  while (window_[i].count != 0 && window_[i].source != source) {
    i = (i + 1) & mask;
  }
  return i;
}

void Firewall::grow_window() {
  std::vector<WindowCell> old(window_.empty() ? 16 : 2 * window_.size());
  old.swap(window_);
  window_shift_ =
      64 - static_cast<unsigned>(std::countr_zero(window_.size()));
  for (const WindowCell& cell : old) {
    if (cell.count != 0) window_[window_slot(cell.source)] = cell;
  }
}

std::uint32_t Firewall::window_count(workload::SourceId source) const {
  return window_.empty() ? 0 : window_[window_slot(source)].count;
}

bool Firewall::is_banned(workload::SourceId source) const {
  const auto it = bans_.find(source);
  return it != bans_.end() && it->second > engine_.now();
}

std::size_t Firewall::banned_count() const {
  std::size_t n = 0;
  const Time now = engine_.now();
  // dope-lint: allow(unordered-iter) — pure commutative count; no
  // output, trace, or state mutation depends on visit order.
  for (const auto& [src, until] : bans_) {
    if (until > now) ++n;
  }
  return n;
}

void Firewall::poll() {
  const double window_s = to_seconds(config_.check_interval);
  // Visit the window sorted by source id: ban decisions emit log lines
  // and trace events, and table order would make those exports (and the
  // strikes/bans insertion order) depend on the table's size. The table
  // is cleared below, so the occupied cells are packed to its front and
  // sorted in place.
  const auto used_end =
      std::remove_if(window_.begin(), window_.end(),
                     [](const WindowCell& cell) { return cell.count == 0; });
  std::sort(window_.begin(), used_end,
            [](const WindowCell& a, const WindowCell& b) {
              return a.source < b.source;
            });
  for (auto it = window_.begin(); it != used_end; ++it) {
    const auto [source, count] = *it;
    const double rate = static_cast<double>(count) / window_s;
    if (rate > config_.threshold_rps) {
      unsigned& strikes = strikes_[source];
      ++strikes;
      if (strikes >= config_.required_strikes) {
        bans_[source] = engine_.now() + config_.ban_duration;
        ++total_bans_;
        strikes = 0;
        DOPE_LOG_INFO << "firewall banned source " << source << " at rate "
                      << rate << " rps";
        if (hub_ != nullptr) {
          obs_bans_->inc();
          obs::TraceEvent e;
          e.t = engine_.now();
          e.type = obs::EventType::kFirewallBan;
          e.source = "firewall";
          e.num.emplace_back("source_id", source);
          e.num.emplace_back("rate_rps", rate);
          if (zone_ >= 0) e.num.emplace_back("zone", zone_);
          hub_->event(std::move(e));
        }
      }
    } else {
      // Streak broken: the source behaved this window.
      const auto it = strikes_.find(source);
      if (it != strikes_.end()) strikes_.erase(it);
    }
  }
  std::fill(window_.begin(), window_.end(), WindowCell{});
  window_used_ = 0;
}

}  // namespace dope::net
