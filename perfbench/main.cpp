// Whole-simulator benchmark driver (see README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --golden-csv FILE [--expect-digest HEX]
//             [--spans-out FILE] [--sim-seconds S]
//
// Every invocation first replays the golden 60 s configuration and
// compares its summary CSV with FILE byte for byte, then runs the
// workload through the library's entry points (`scenario::run_scenario`,
// `sweep::SweepRunner::run`) until S seconds have passed; every run must
// reproduce the first (and HEX, when given). With --trace 0 it also times
// set-up alone and, in a fresh process, one run's peak memory, and
// reports the end-to-end metrics. With --trace 1 it does one traced run,
// whose simulated outputs must match, and reports the per-layer metrics.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/audit.hpp"
#include "common/minijson.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "obs/json.hpp"
#include "scenario/scenario.hpp"
#include "support.hpp"
#include "sweep/sweep.hpp"
#include "traced.hpp"

// The sanitizer this binary was compiled with, if any (GCC defines the
// __SANITIZE_*__ macros; clang answers __has_feature).
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZER "address"
#elif defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZER "thread"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_SANITIZER "address"
#elif __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZER "thread"
#endif
#endif
#ifndef PERFBENCH_SANITIZER
#define PERFBENCH_SANITIZER "off"
#endif

namespace sc = dope::scenario;
using dope::kMinute;
using dope::kSecond;
using namespace perfbench;

namespace {

// ---------------------------------------------------------------- config

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  double sim_seconds = 0.0;  // 0 keeps each workload's own window
  std::string golden_csv;
  std::string expect_digest;
  std::string spans_out;
  bool rss_probe = false;  // internal: one untraced run, nothing printed
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--sim-seconds") {
        a.sim_seconds = std::stod(value);
      } else if (flag == "--golden-csv") {
        a.golden_csv = value;
      } else if (flag == "--expect-digest") {
        a.expect_digest = value;
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else if (flag == "--rss-probe") {
        a.rss_probe = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.sim_seconds < 0.0) usage("--sim-seconds must not be negative");
  if (a.golden_csv.empty()) usage("--golden-csv is required");
  return a;
}

dope::Duration window(const Args& a, dope::Duration fallback) {
  return a.sim_seconds > 0.0
             ? static_cast<dope::Duration>(a.sim_seconds * kSecond)
             : fallback;
}

dope::workload::Mixture dope_blend() {
  using dope::workload::Catalog;
  return dope::workload::Mixture(
      {Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount},
      {1.0, 1.0, 1.0});
}

/// The golden configuration: Anti-DOPE, Low-PB, 8 servers, 300 rps
/// AliOS-blend normal traffic, a 400 rps DOPE blend from 64 agents and a
/// 2-minute battery (`dopesim_cli`'s defaults).
sc::ScenarioConfig paper_cluster(std::uint64_t seed, dope::Duration duration) {
  sc::ScenarioConfig c;
  c.scheme = sc::SchemeKind::kAntiDope;
  c.budget = dope::power::BudgetLevel::kLow;
  c.normal_rps = 300.0;
  c.attack_rps = 400.0;
  c.attack_mixture = dope_blend();
  c.duration = duration;
  c.seed = seed;
  return c;
}

/// 10 zones x 100 servers behind the weighted GLB with the headroom-aware
/// divider and the perimeter firewall; 30k rps normal traffic through the
/// GLB and a 6k rps DOPE flood from 640 agents pinned to zone 3.
sc::ScenarioConfig site_10x100(std::uint64_t seed, dope::Duration duration) {
  sc::ScenarioConfig c = paper_cluster(seed, duration);
  c.num_zones = 10;
  c.num_servers = 100;
  c.glb_policy = dope::site::GlobalLbPolicy::kWeighted;
  c.site_divider = dope::site::DividerKind::kHeadroomAware;
  // The firewall polls every 3 s rather than its default 5 s, so that
  // most polls and budget reapportions (every 5 s) fall on different slot
  // boundaries and each one's cost can be read apart from the other's.
  c.firewall = dope::net::FirewallConfig{};
  c.firewall->check_interval = 3 * kSecond;
  c.normal_rps = 30000.0;
  c.attack_rps = 6000.0;
  c.attack_agents = 640;
  c.attack_zone = 3;
  return c;
}

/// The Fig. 16 grid: 4 budget levels x the four evaluated schemes under
/// a 400 rps DOPE flood (`bench_fig16_mean_rt`).
dope::sweep::GridSpec fig16_grid(std::uint64_t seed, dope::Duration duration) {
  dope::sweep::GridSpec grid;
  grid.base = paper_cluster(seed, duration);
  grid.base.scheme = sc::SchemeKind::kCapping;
  grid.base.budget = dope::power::BudgetLevel::kNormal;
  grid.budgets = {dope::power::BudgetLevel::kNormal,
                  dope::power::BudgetLevel::kHigh,
                  dope::power::BudgetLevel::kMedium,
                  dope::power::BudgetLevel::kLow};
  grid.schemes.assign(std::begin(sc::kEvaluatedSchemes),
                      std::end(sc::kEvaluatedSchemes));
  return grid;
}

/// The hub `dopesim_cli --incidents-out --alerts` attaches.
std::unique_ptr<dope::obs::Hub> observed_hub() {
  dope::obs::HubConfig hc;
  hc.enable_spans = true;
  hc.enable_timeseries = true;
  hc.enable_flight = true;
  return std::make_unique<dope::obs::Hub>(hc);
}

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports 0 for it (README.md, "Per-layer metrics").
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.events_per_request", "events/req"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_p50", "count"},
    {"sim.pending_max", "count"},
    {"sim.event_pool_slots", "count"},
    {"workload.arrivals", "count"},
    {"cluster.ingest_ns_p50", "ns"},
    {"cluster.ingest_ns_p99", "ns"},
    {"cluster.ingest_calls", "count"},
    {"cluster.ingest_share", "ratio"},
    {"cluster.slot_us_p50", "us"},
    {"cluster.slot_us_tail", "us"},
    {"cluster.slot_tail_pct", "%"},
    {"cluster.slot_samples", "count"},
    {"cluster.slot_share", "ratio"},
    {"cluster.other_share", "ratio"},
    {"server.completed", "count"},
    {"server.rejected_queue_full", "count"},
    {"server.timed_out", "count"},
    {"server.completed_frac", "ratio"},
    {"server.queue_len_max", "count"},
    {"site.ingest_ns_p50", "ns"},
    {"site.zone_sink_ns_p50", "ns"},
    {"net.firewall_poll_us", "us"},
    {"site.reapportion_us", "us"},
    {"site.reapportions", "count"},
    {"schemes.cell_ms_capping", "ms"},
    {"schemes.cell_ms_shaving", "ms"},
    {"schemes.cell_ms_token", "ms"},
    {"schemes.cell_ms_antidope", "ms"},
    {"sweep.parallel_efficiency", "ratio"},
    {"sweep.straggler_ratio", "ratio"},
    {"sweep.threads", "count"},
    {"obs.overhead_x", "ratio"},
    {"obs.trace_events", "count"},
    {"obs.spans", "count"},
    {"obs.series_samples", "count"},
    {"obs.ns_per_span", "ns"},
    {"obs.export_ms_metrics", "ms"},
    {"obs.export_ms_trace", "ms"},
    {"obs.export_ms_forensics", "ms"},
    {"obs.export_ms_bundle", "ms"},
    {"obs.export_bytes", "bytes"},
    {"bench.trace_overhead_x", "ratio"},
    {"bench.spans", "count"},
};

/// Prints the result object as one line.
void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    dope::obs::write_json_string(out, metrics[i].name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out << ": {\"value\": " << buf << ", \"unit\": ";
    dope::obs::write_json_string(out, metrics[i].unit);
    out << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Per-layer values by name, reported in `kLayerMetrics` order.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }

  std::vector<Metric> layer_metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = values_.find(name);
      out.push_back({name, unit, it == values_.end() ? 0.0 : it->second});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Highest percentile with at least ten samples beyond it: the order
/// statistic with exactly ten larger samples. Returns {value, percent}.
std::pair<double, double> tail(const dope::Percentiles& p) {
  const auto& sorted = p.sorted_samples();
  const std::size_t n = sorted.size();
  if (n < 11) return {n ? sorted.back() : 0.0, 100.0};
  return {sorted[n - 11], 100.0 * static_cast<double>(n - 10) /
                              static_cast<double>(n)};
}

void report_layers(const LayerStats& s, Report& r) {
  const double sim_ns =
      static_cast<double>(std::max<std::int64_t>(s.simulate_ns, 1));
  r.set("sim.events", static_cast<double>(s.events));
  r.set("sim.events_per_request",
        s.arrivals ? static_cast<double>(s.events) /
                         static_cast<double>(s.arrivals)
                   : 0.0);
  r.set("sim.ns_per_event",
        s.events ? sim_ns / static_cast<double>(s.events) : 0.0);
  r.set("sim.pending_p50", s.pending.median());
  r.set("sim.pending_max", s.pending.max());
  r.set("sim.event_pool_slots", static_cast<double>(s.event_pool_slots));
  r.set("workload.arrivals", static_cast<double>(s.arrivals));
  r.set("cluster.ingest_ns_p50", s.ingest.percentile(50));
  r.set("cluster.ingest_ns_p99", s.ingest.percentile(99));
  r.set("cluster.ingest_calls", static_cast<double>(s.ingest.count()));
  const double ingest_share = static_cast<double>(s.ingest_ns) / sim_ns;
  const double slot_share =
      static_cast<double>(s.slot_ns - s.ingest_in_slot_ns) / sim_ns;
  r.set("cluster.ingest_share", ingest_share);
  r.set("cluster.slot_us_p50", s.slot_us.median());
  const auto [tail_us, tail_pct] = tail(s.slot_us);
  r.set("cluster.slot_us_tail", tail_us);
  r.set("cluster.slot_tail_pct", tail_pct);
  r.set("cluster.slot_samples", static_cast<double>(s.slot_us.count()));
  r.set("cluster.slot_share", slot_share);
  r.set("cluster.other_share", 1.0 - ingest_share - slot_share);
  r.set("server.completed", static_cast<double>(s.servers.completed));
  r.set("server.rejected_queue_full",
        static_cast<double>(s.servers.rejected_queue_full));
  r.set("server.timed_out", static_cast<double>(s.servers.timed_out));
  r.set("server.completed_frac",
        s.arrivals ? static_cast<double>(s.servers.completed) /
                         static_cast<double>(s.arrivals)
                   : 0.0);
  r.set("server.queue_len_max", static_cast<double>(s.queue_len_max));
  if (s.ingest_edge.count() > 0 && s.ingest_zone.count() > 0) {
    r.set("site.ingest_ns_p50", s.ingest_edge.percentile(50));
    r.set("site.zone_sink_ns_p50", s.ingest_zone.percentile(50));
  }
  if (!s.slot_us_reapportion.empty() && !s.slot_us_plain.empty()) {
    r.set("site.reapportion_us",
          s.slot_us_reapportion.median() - s.slot_us_plain.median());
  }
  if (!s.slot_us_firewall.empty() && !s.slot_us_plain.empty()) {
    r.set("net.firewall_poll_us",
          s.slot_us_firewall.median() - s.slot_us_plain.median());
  }
  r.set("site.reapportions", static_cast<double>(s.reapportions));
}

// ------------------------------------------------------------- workloads

/// One untraced run's checkable outputs.
struct Outcome {
  std::string digest;           // digest_text, joined over grid cells
  std::uint64_t terminal = 0;   // terminal requests, normal + attack
};

/// A benchmark workload: how a user runs it, how its set-up alone is
/// timed, and the traced rebuild that reproduces it.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One run as a user invokes it, through the library's entry points.
  virtual Outcome run() = 0;
  /// Builds every layer and stops before the first simulated event.
  virtual void setup() = 0;
  /// The traced run: spans under `root`, per-layer numbers into `report`,
  /// including its own wall against the comparable untraced wall
  /// (`base_wall_s` is the untraced median).
  virtual Outcome traced(SpanLog& log, std::uint64_t root, Report& report,
                         double base_wall_s) = 0;
};

class ScenarioWorkload : public Workload {
 public:
  explicit ScenarioWorkload(sc::ScenarioConfig config)
      : config_(std::move(config)) {}

  Outcome run() override {
    const auto r = sc::run_scenario(config_);
    return {digest_text(r), terminal_requests(r)};
  }

  void setup() override {
    sc::ScenarioConfig c = config_;
    c.duration = 1;
    sc::run_scenario(c);
  }

  Outcome traced(SpanLog& log, std::uint64_t root, Report& report,
                 double base_wall_s) override {
    LayerStats stats;
    const Clock::time_point t0 = Clock::now();
    const auto r = traced_scenario(config_, log, root, stats);
    report.set("bench.trace_overhead_x", seconds_since(t0) / base_wall_s);
    report_layers(stats, report);
    return {digest_text(r), terminal_requests(r)};
  }

 private:
  sc::ScenarioConfig config_;
};

/// `paper-cluster` at 60 s with the full hub; exports go to a byte
/// counter.
class ObservedWorkload : public Workload {
 public:
  explicit ObservedWorkload(sc::ScenarioConfig config)
      : config_(std::move(config)) {
    config_.default_alert_rules = true;
  }

  Outcome run() override {
    auto hub = observed_hub();
    sc::ScenarioConfig c = config_;
    c.obs = hub.get();
    const auto r = sc::run_scenario(c);
    Exports e;
    export_all(*hub, nullptr, 0, e);
    return {digest_text(r), terminal_requests(r)};
  }

  void setup() override {
    auto hub = observed_hub();
    sc::ScenarioConfig c = config_;
    c.obs = hub.get();
    c.duration = 1;
    sc::run_scenario(c);
  }

  Outcome traced(SpanLog& log, std::uint64_t root, Report& report,
                 double base_wall_s) override {
    const Clock::time_point t0 = Clock::now();
    auto hub = observed_hub();
    sc::ScenarioConfig c = config_;
    c.obs = hub.get();
    LayerStats stats;
    const auto r = traced_scenario(c, log, root, stats);
    Exports e;
    export_all(*hub, &log, root, e);
    report.set("bench.trace_overhead_x", seconds_since(t0) / base_wall_s);
    report_layers(stats, report);
    report.set("obs.export_ms_metrics", e.ms[0]);
    report.set("obs.export_ms_trace", e.ms[1]);
    report.set("obs.export_ms_forensics", e.ms[2]);
    report.set("obs.export_ms_bundle", e.ms[3]);
    report.set("obs.export_bytes", static_cast<double>(e.bytes));
    report.set("obs.trace_events",
               static_cast<double>(hub->trace().recorded()));
    const double spans = static_cast<double>(hub->spans()->recorded());
    report.set("obs.spans", spans);
    report.set("obs.series_samples",
               static_cast<double>(series_samples(*hub)));

    // The same configuration detached: what the hub costs.
    LayerStats detached;
    const std::uint64_t span = log.begin("detached", root);
    const auto d = traced_scenario(config_, log, span, detached);
    log.end(span);
    if (digest_text(d) != digest_text(r)) {
      throw std::runtime_error("attaching the hub changed the outputs");
    }
    const double with_hub = static_cast<double>(stats.simulate_ns);
    const double without = static_cast<double>(detached.simulate_ns);
    report.set("obs.overhead_x", with_hub / without);
    if (spans > 0) {
      report.set("obs.ns_per_span", (with_hub - without) / spans);
    }
    return {digest_text(r), terminal_requests(r)};
  }

 private:
  struct Exports {
    double ms[4] = {};
    std::uint64_t bytes = 0;
  };

  /// Serialises the metrics JSON, the JSONL trace with spans, the
  /// forensics rollup and the incident bundle into a byte counter.
  void export_all(const dope::obs::Hub& hub, SpanLog* log,
                  std::uint64_t root, Exports& e) const {
    CountingBuf buf;
    std::ostream out(&buf);
    const std::function<void()> steps[4] = {
        [&] { hub.registry().write_json(out); },
        [&] { hub.write_trace_jsonl(out); },
        [&] {
          dope::obs::Forensics::build(*hub.spans(), hub.trace(),
                                      config_.duration)
              .write_json(out);
        },
        [&] { hub.flight()->write_json(out); },
    };
    const char* names[4] = {"export.metrics", "export.trace",
                            "export.forensics", "export.bundle"};
    for (int i = 0; i < 4; ++i) {
      const Clock::time_point t0 = Clock::now();
      steps[i]();
      const Clock::time_point t1 = Clock::now();
      e.ms[i] = ms_between(t0, t1);
      if (log != nullptr) log->add(names[i], root, t0, t1);
    }
    out.flush();
    e.bytes = buf.bytes();
    if (e.bytes == 0) throw std::runtime_error("exports wrote nothing");
  }

  /// Samples fed to every time series (read back from the store's JSON,
  /// the only listing of its series it offers).
  static std::uint64_t series_samples(const dope::obs::Hub& hub) {
    std::ostringstream out;
    hub.timeseries()->write_json(out);
    std::uint64_t total = 0;
    for (const auto& [name, series] :
         dope::minijson::parse(out.str()).fields) {
      total += static_cast<std::uint64_t>(dope::minijson::as_i64(
          dope::minijson::require(series, "samples"), "samples"));
    }
    return total;
  }

  sc::ScenarioConfig config_;
};

class GridWorkload : public Workload {
 public:
  GridWorkload(dope::sweep::GridSpec grid, std::size_t threads)
      : grid_(std::move(grid)), threads_(threads) {}

  Outcome run() override { return check(run_grid(grid_)); }

  /// The 16 cells' builds, one after another. The sweep's thread-pool
  /// start-up is left out: on a shared host its cost is scheduler noise
  /// that varied by 2.5x between invocations and swamped the builds.
  void setup() override {
    for (const auto& p : dope::sweep::expand(grid_)) {
      sc::ScenarioConfig c = dope::sweep::materialize(grid_, p);
      c.duration = 1;
      sc::run_scenario(c);
    }
  }

  Outcome traced(SpanLog& log, std::uint64_t root, Report& report,
                 double base_wall_s) override {
    const auto points = dope::sweep::expand(grid_);
    LayerStats stats;
    Outcome traced;
    const Clock::time_point t0 = Clock::now();
    for (const auto& p : points) {
      const std::uint64_t cell = log.begin("cell " + p.label(), root);
      const auto r = traced_scenario(dope::sweep::materialize(grid_, p), log,
                                     cell, stats);
      log.end(cell);
      traced.digest += digest_text(r) + "\n";
      traced.terminal += terminal_requests(r);
    }
    const double traced_s = seconds_since(t0);
    report_layers(stats, report);

    // Serial run_scenario per cell: the per-scheme cost and the sweep's
    // load balance.
    std::map<sc::SchemeKind, std::vector<double>> by_scheme;
    std::vector<double> cell_ms;
    std::string serial;
    for (const auto& p : points) {
      const auto config = dope::sweep::materialize(grid_, p);
      const Clock::time_point begin = Clock::now();
      const auto r = sc::run_scenario(config);
      const Clock::time_point end = Clock::now();
      log.add("serial " + p.label(), root, begin, end);
      const double ms = ms_between(begin, end);
      cell_ms.push_back(ms);
      by_scheme[p.scheme].push_back(ms);
      serial += digest_text(r) + "\n";
    }
    if (serial != traced.digest) {
      throw std::runtime_error("serial cells disagree with the traced grid");
    }
    report.set("schemes.cell_ms_capping",
               median(by_scheme[sc::SchemeKind::kCapping]));
    report.set("schemes.cell_ms_shaving",
               median(by_scheme[sc::SchemeKind::kShaving]));
    report.set("schemes.cell_ms_token",
               median(by_scheme[sc::SchemeKind::kToken]));
    report.set("schemes.cell_ms_antidope",
               median(by_scheme[sc::SchemeKind::kAntiDope]));
    double sum = 0.0;
    for (const double ms : cell_ms) sum += ms;
    const double max = *std::max_element(cell_ms.begin(), cell_ms.end());
    // Traced cells against the same cells run serially and untraced.
    report.set("bench.trace_overhead_x", traced_s / (sum * 1e-3));
    report.set("sweep.parallel_efficiency",
               sum * 1e-3 / (static_cast<double>(threads_) * base_wall_s));
    report.set("sweep.straggler_ratio",
               max / (sum / static_cast<double>(cell_ms.size())));
    report.set("sweep.threads", static_cast<double>(threads_));
    return traced;
  }

 private:
  dope::sweep::SweepResult run_grid(const dope::sweep::GridSpec& g) const {
    return dope::sweep::SweepRunner({.threads = threads_}).run(g);
  }

  /// Fails the run when any grid point failed; joins the cell digests.
  static Outcome check(const dope::sweep::SweepResult& result) {
    result.require_all_ok();
    Outcome out;
    for (const auto& record : result.runs) {
      out.digest += digest_text(record.result) + "\n";
      out.terminal += terminal_requests(record.result);
    }
    return out;
  }

  dope::sweep::GridSpec grid_;
  std::size_t threads_;
};

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "paper-cluster") {
    return std::make_unique<ScenarioWorkload>(
        paper_cluster(a.seed, window(a, 10 * kMinute)));
  }
  if (a.workload == "site-10x100") {
    return std::make_unique<ScenarioWorkload>(
        site_10x100(a.seed, window(a, 60 * kSecond)));
  }
  if (a.workload == "fig16-grid") {
    const std::size_t threads =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    return std::make_unique<GridWorkload>(
        fig16_grid(a.seed, window(a, 10 * kMinute)), threads);
  }
  if (a.workload == "paper-cluster-observed") {
    return std::make_unique<ObservedWorkload>(
        paper_cluster(a.seed, window(a, 60 * kSecond)));
  }
  usage("unknown workload " + a.workload);
}

// ----------------------------------------------------------------- gate

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// The golden configuration at 60 s (seed 42) must reproduce the
/// committed summary CSV byte for byte.
bool golden_row_matches(const std::string& path) {
  const std::string expected = read_file(path);
  std::ostringstream out;
  sc::write_results_csv(out, {sc::run_scenario(paper_cluster(42, kMinute))});
  if (out.str() == expected) return true;
  std::cerr << "perfbench: golden CSV mismatch\n  expected: " << expected
            << "  got:      " << out.str();
  return false;
}

/// Counts runs and failed runs; a run fails when it throws or when its
/// digest differs from the reference it is checked against.
class Gate {
 public:
  template <typename Fn>
  bool attempt(const char* what, Fn&& fn) {
    ++attempted_;
    try {
      if (fn()) return true;
      std::cerr << "perfbench: " << what << ": outputs differ\n";
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << what << ": " << e.what() << "\n";
    }
    ++failed_;
    return false;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -------------------------------------------------------------- context

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * i, regs, 16);
    }
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

void print_context(const Args& a) {
  std::ostringstream out;
  out << "{\"context\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": ";
  dope::obs::write_json_string(out, cpu_model());
  out << ", \"compiler\": ";
  dope::obs::write_json_string(out, PERFBENCH_COMPILER);
  out << ", \"build_type\": ";
  dope::obs::write_json_string(out, PERFBENCH_BUILD_TYPE);
  out << ", \"dope_audit\": \""
      << (dope::audit::kEnabled ? "on" : "off")
      << "\", \"dope_sanitize\": \"" << PERFBENCH_SANITIZER
      << "\", \"workload\": ";
  dope::obs::write_json_string(out, a.workload);
  out << ", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
      << ", \"trace\": " << a.trace << "}}";
  std::cout << out.str() << "\n";
}

/// Peak resident memory of a fresh process that does one untraced run,
/// as a user's process would: this process's own peak also holds the
/// set-up loop, every repetition and the traced run, and depends on how
/// the allocator reused memory across them.
double probe_peak_rss_mb(int argc, char** argv) {
  std::vector<char*> child_argv(argv, argv + argc);
  char flag[] = "--rss-probe";
  char one[] = "1";
  child_argv.push_back(flag);
  child_argv.push_back(one);
  child_argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[0], nullptr, nullptr, child_argv.data(),
                  environ) != 0) {
    throw std::runtime_error("cannot start the memory probe");
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("memory probe failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.rss_probe) {
    make_workload(args)->run();
    return 0;
  }
  print_context(args);
  if (dope::audit::kEnabled ||
      std::strcmp(PERFBENCH_SANITIZER, "off") != 0) {
    std::cerr << "perfbench: refusing to record numbers from an audit or "
                 "sanitizer build\n";
    return 3;
  }
  const auto workload = make_workload(args);
  Gate gate;
  gate.attempt("golden 60 s CSV row",
               [&] { return golden_row_matches(args.golden_csv); });

  // Untraced runs until the budget is spent (at least three attempted).
  // Every run must reproduce the first, and the recorded digest when one
  // is given.
  // With --trace 0, set-up alone is timed after every run, for a
  // twentieth of that run's wall (3 to 200 times), so that its samples
  // span the same window as the runs' and see the same drift in host
  // speed.
  std::vector<double> wall_s;
  std::vector<double> setup_s;
  Outcome reference;
  bool have_reference = false;
  const Clock::time_point start = Clock::now();
  for (int runs = 0; runs < 3 || seconds_since(start) < args.seconds;
       ++runs) {
    gate.attempt("untraced run", [&] {
      const Clock::time_point t0 = Clock::now();
      const Outcome o = workload->run();
      wall_s.push_back(seconds_since(t0));
      if (!have_reference) {
        reference = o;
        have_reference = true;
        std::cout << "{\"digest\": \"" << fnv1a_hex(o.digest) << "\"}\n";
        return args.expect_digest.empty() ||
               fnv1a_hex(o.digest) == args.expect_digest;
      }
      return o.digest == reference.digest && o.terminal == reference.terminal;
    });
    if (gate.failed() > 0 && !have_reference) break;  // nothing to compare
    if (args.trace == 0) {
      gate.attempt("set-up", [&] {
        const double budget = 0.05 * wall_s.back();
        double spent = 0.0;
        for (int i = 0; i < 200 && (i < 3 || spent < budget); ++i) {
          const Clock::time_point t0 = Clock::now();
          workload->setup();
          setup_s.push_back(seconds_since(t0));
          spent += setup_s.back();
        }
        return true;
      });
    }
  }

  // The traced rebuild must reproduce the untraced outputs exactly.
  SpanLog log;
  Report report;
  const double base_wall = wall_s.empty() ? 0.0 : median(wall_s);
  if (args.trace == 1) {
    gate.attempt("traced run", [&] {
      const std::uint64_t root = log.begin(args.workload, 0);
      const Outcome o = workload->traced(log, root, report, base_wall);
      log.end(root);
      report.set("bench.spans", static_cast<double>(log.spans().size()));
      return have_reference && o.digest == reference.digest;
    });
  }
  if (args.trace == 1 && !args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    log.write_jsonl(out);
    if (!out) {
      std::cerr << "perfbench: cannot write " << args.spans_out << "\n";
      return 1;
    }
  }

  double rss_mb = 0.0;
  if (args.trace == 0) {
    gate.attempt("memory probe run", [&] {
      rss_mb = probe_peak_rss_mb(argc, argv);
      return true;
    });
  }

  const bool correct = gate.failed() == 0 && !wall_s.empty();
  std::vector<Metric> metrics;
  if (args.trace == 1) {
    metrics = report.layer_metrics();
  } else {
    metrics = {
        {"wall_s", "s", base_wall},
        {"setup_s", "s", setup_s.empty() ? 0.0 : median(setup_s)},
        {"sim_requests_per_s", "1/s",
         base_wall > 0.0 ? static_cast<double>(reference.terminal) / base_wall
                         : 0.0},
        {"peak_rss_mb", "MB", rss_mb},
    };
  }
  print_result(correct, gate.attempted(), gate.failed(), metrics);
  return 0;
}
