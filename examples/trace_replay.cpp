// Trace replay: generate (or load) an Alibaba-style server-usage trace,
// collapse it into a cluster-load series, and replay it as time-varying
// normal traffic against a power-managed cluster — the paper's
// trace-driven evaluation methodology in miniature.
//
//   $ ./trace_replay                 # synthesise a 12 h trace, replay it
//   $ ./trace_replay usage.csv       # replay a real server_usage CSV
//
// A file that cannot be opened, holds no usable record, or describes a
// replay the simulator rejects exits 1 with a "trace_replay: " message
// on stderr.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.hpp"
#include "scenario/scenario.hpp"
#include "trace/alibaba.hpp"
#include "trace/synthetic.hpp"

namespace {

int replay(int argc, char** argv) {
  using namespace dope;

  // 1. Obtain a trace: parse the file given on the command line, or
  //    synthesise one matching the public trace's statistics.
  std::vector<trace::UsageRecord> records;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "trace_replay: cannot open " << argv[1] << "\n";
      return 1;
    }
    std::size_t bad = 0;
    // Auto-detects the cluster-trace-v2017 (server_usage) vs. v2018
    // (machine_usage, "m_" ids) schema.
    records = trace::parse_any_usage(in, &bad);
    std::cout << "parsed " << records.size() << " records from " << argv[1]
              << " (" << bad << " malformed rows skipped)\n";
    if (records.empty()) {
      std::cerr << "trace_replay: no usable usage records in " << argv[1]
                << "\n";
      return 1;
    }
  } else {
    trace::SyntheticTraceConfig synth;
    synth.machines = 64;
    synth.duration_s = 12 * 3600;  // the paper's 12-hour log
    records = trace::generate_server_usage(synth);
    std::cout << "synthesised " << records.size()
              << " records (64 machines, 12 h, 300 s interval)\n";
  }

  const auto summary = trace::summarize(records);
  std::cout << "trace: " << summary.machines << " machines, mean cpu "
            << summary.mean_cpu << "%, span "
            << (summary.t_end - summary.t_begin) / 3600 << " h\n\n";

  // 2. Collapse to a cluster-utilisation series and map onto a request
  //    rate plan: peak load = 500 rps, 12 trace-hours compressed into 12
  //    simulated minutes (x60).
  const auto util = trace::cluster_utilization(records);
  const auto plan = trace::to_rate_plan(util, /*peak_rps=*/500.0,
                                        /*time_compression=*/60.0);

  // 3. A power-constrained cluster defended by Anti-DOPE, with normal
  //    traffic following the trace's shape and a two-minute DOPE burst
  //    mid-replay.
  const Duration replay_span = 12 * kMinute;
  scenario::ScenarioConfig config;
  config.budget = power::BudgetLevel::kMedium;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.normal_rps = plan.empty() ? 100.0 : plan.front().rate_rps;
  config.normal_rate_plan = plan;
  config.attack_rps = 400.0;
  config.attack_start = 5 * kMinute;
  config.attack_stop = 7 * kMinute;
  config.duration = replay_span;
  const auto r = scenario::run_scenario(config);

  // 4. Report.
  std::cout << "== replay results (12 trace-hours in "
            << to_seconds(replay_span) / 60 << " sim-minutes) ==\n";
  TextTable table({"metric", "value"});
  table.row("normal requests served",
            static_cast<long long>(r.normal_counts.completed));
  table.row("mean latency (ms)", r.mean_ms);
  table.row("p90 latency (ms)", r.p90_ms);
  table.row("availability", r.availability);
  table.row("attack requests seen",
            static_cast<long long>(r.attack_counts.terminal()));
  table.row("budget violations (slots)",
            static_cast<long long>(r.slot_stats.violation_slots));
  table.row("utility energy (J)", r.energy.utility.value());
  table.print(std::cout);

  // 5. Round-trip demo: write the synthetic trace back out in the same
  //    schema so external tooling can consume it.
  if (argc <= 1) {
    std::ostringstream out;
    trace::write_server_usage(out, records);
    std::cout << "\n(serialised trace is " << out.str().size()
              << " bytes in server_usage.csv schema)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return replay(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "trace_replay: " << e.what() << "\n";
    return 1;
  }
}
