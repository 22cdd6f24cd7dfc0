// The traced run: the benchmark's own assembly of a scenario from the
// public layer APIs (sim::Engine, cluster::Cluster / site::Site,
// scenario::make_scheme, workload::TrafficGenerator), in the order
// `scenario::run_scenario` uses, so that it reproduces the untraced
// run's simulated outputs exactly. The benchmark times only the calls it
// makes itself: setup, each engine window between slot boundaries, each
// slot-boundary window, and every request handed to the cluster or site
// by the generators (through a sink wrapper the benchmark owns).
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "scenario/scenario.hpp"
#include "server/node.hpp"
#include "support.hpp"

namespace perfbench {

/// Per-layer counts and host times gathered by traced runs. Summed over
/// every run that feeds it (the Fig. 16 grid feeds one per cell).
struct LayerStats {
  // sim
  std::uint64_t events = 0;           // Engine::executed()
  std::size_t event_pool_slots = 0;   // max Engine::event_pool_size()
  dope::Percentiles pending;          // Engine::pending() per boundary
  // workload
  std::uint64_t arrivals = 0;         // TrafficGenerator::generated()
  // host time, nanoseconds
  std::int64_t simulate_ns = 0;       // every engine window
  std::int64_t slot_ns = 0;           // slot-boundary windows only
  std::int64_t ingest_ns = 0;         // every timed sink call
  std::int64_t ingest_in_slot_ns = 0; // sink calls inside slot windows
  /// Per-call ingest host time (ns), all sinks / GLB edge / zone-pinned.
  /// Fixed-width bins keep memory flat however many calls there are.
  dope::Histogram ingest{0.0, 100000.0, 10000};
  dope::Histogram ingest_edge{0.0, 100000.0, 10000};
  dope::Histogram ingest_zone{0.0, 100000.0, 10000};
  /// Slot-boundary window host time (us): all boundaries; those with a
  /// budget reapportion and no firewall poll; those with a firewall poll
  /// and no reapportion; those with neither (the last three only when a
  /// site reapportions or a firewall polls).
  dope::Percentiles slot_us;
  dope::Percentiles slot_us_reapportion;
  dope::Percentiles slot_us_firewall;
  dope::Percentiles slot_us_plain;
  // server
  dope::server::ServerCounters servers;
  std::size_t queue_len_max = 0;      // sampled per boundary
  // site
  std::uint64_t reapportions = 0;
};

/// Runs `config` as `scenario::run_scenario` would, recording spans under
/// `parent` and per-layer numbers into `stats`. Returns a result whose
/// digest fields (see `digest_text`) are filled; the other fields are
/// not. Throws std::invalid_argument for scenario features the replay
/// does not mirror (rate plans, node outages, forced incident dumps,
/// alert or trace-cap overrides, and a hub on a multi-zone site).
dope::scenario::ScenarioResult traced_scenario(
    const dope::scenario::ScenarioConfig& config, SpanLog& log,
    std::uint64_t parent, LayerStats& stats);

}  // namespace perfbench
