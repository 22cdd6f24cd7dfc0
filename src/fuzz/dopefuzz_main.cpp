// dopefuzz — randomized scenario fuzzing with differential oracles.
//
// Samples N randomized-but-valid scenarios from the fuzz domain, judges
// each under a scheme + the uncapped reference with the physics /
// scheme-relative / determinism oracles, and greedily shrinks every
// failure to a minimal reproduction. Campaign output is byte-identical
// for any --threads value; every failure prints a ready-to-paste
// `dopefuzz --case-seed N` command and can be exported as a
// self-contained `.repro.json`.
//
//   $ ./dopefuzz --cases 200 --seed 1 --threads 8
//   $ ./dopefuzz --case-seed 0xdeadbeef --repro fail.repro.json
//   $ ./dopefuzz --replay fail.repro.json
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/argv.hpp"
#include "fuzz/domain.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/repro.hpp"
#include "obs/hub.hpp"
#include "obs/live.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace dope;

void print_help() {
  std::cout <<
      R"(dopefuzz — randomized scenario fuzzing with differential oracles

usage: dopefuzz [options]

campaign
  --cases N            sampled cases per campaign (default 100)
  --seed S             campaign seed; case i fuzzes seed
                       splitmix64(S, i) (default 1)
  --threads N          worker threads; 0 = hardware concurrency (default)
  --no-shrink          report failures without minimizing them
  --no-determinism     skip the per-case rerun determinism oracle
                       (halves the runs; weaker campaign)

single case
  --case-seed S        judge exactly one sampled case (accepts 0x hex);
                       this is the command every failure prints
  --replay FILE        re-judge a stored .repro.json case instead of
                       sampling; exit 0 only if its recorded violation
                       is still observed

output
  --repro FILE         write the first failure (minimized when shrinking
                       is on) as a self-contained .repro.json
  --json FILE          write a machine-readable campaign summary
  --live FILE          while the campaign runs, atomically refresh FILE
                       with a JSON progress snapshot (plus a .prom
                       sibling) and print progress lines to stderr
  --live-interval-ms N live refresh period (default 1000)
  --help               this text

exit status: 0 = no oracle violations, 1 = violations found,
2 = usage or I/O error. See docs/FUZZING.md.
)";
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "dopefuzz: " << message << " (see --help)\n";
  std::exit(2);
}

/// Re-runs a failing case once with a flight-recorder hub and writes
/// the incident bundle next to the repro (`<stem>.incident.json`), so
/// the post-mortem of the failure ships with the reproduction itself.
/// Best-effort: a case whose violation is a thrown exception still gets
/// its repro, just without a bundle.
void write_incident_file(const std::string& repro_path,
                         const fuzz::FuzzCase& fuzz_case) {
  std::string path = repro_path;
  const std::string suffix = ".repro.json";
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
          0) {
    path.resize(path.size() - suffix.size());
  }
  path += ".incident.json";
  try {
    std::string bundle;
    scenario::run_capturing_incidents(
        fuzz::materialize(fuzz_case, fuzz_case.scheme), fuzz_case.label(),
        bundle);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "dopefuzz: cannot write " << path << "\n";
      return;
    }
    out << bundle;
    std::cout << "wrote " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "dopefuzz: incident capture failed: " << e.what() << "\n";
  }
}

/// Judges one explicit case (from --case-seed or --replay), prints the
/// verdict, optionally shrinks + exports, and returns the exit code.
int run_single(const fuzz::FuzzCase& fuzz_case,
               const fuzz::CampaignOptions& options,
               const std::string& repro_path,
               const std::vector<std::string>& expected_checks) {
  std::cout << "case " << fuzz_case.label() << "\n";
  const fuzz::OracleReport report =
      fuzz::run_oracle(fuzz_case, options.oracle);
  if (report.ok()) {
    if (!expected_checks.empty()) {
      std::cout << "recorded violation did NOT reproduce (expected ";
      for (std::size_t i = 0; i < expected_checks.size(); ++i) {
        std::cout << (i > 0 ? ", " : "") << expected_checks[i];
      }
      std::cout << ")\n";
      return 1;
    }
    std::cout << "ok (" << report.runs << " scenario runs, no violations)\n";
    return 0;
  }
  std::cout << "VIOLATIONS: " << report.summary() << "\n";
  for (const auto& violation : report.violations) {
    std::cout << "  " << violation.check << "[" << violation.scheme
              << "]: " << violation.detail << "\n";
  }
  fuzz::FuzzCase minimized = fuzz_case;
  fuzz::OracleReport minimized_report = report;
  if (options.shrink_failures) {
    const fuzz::ShrinkResult shrunk =
        fuzz::shrink(fuzz_case, report, {options.oracle});
    minimized = shrunk.minimized;
    minimized_report = shrunk.report;
    std::cout << "shrunk to " << minimized.label() << " (" << shrunk.steps
              << " steps, " << shrunk.attempts << " attempts)\n";
  }
  std::cout << "repro: dopefuzz --case-seed " << fuzz_case.case_seed << "\n";
  if (!repro_path.empty()) {
    fuzz::Repro repro;
    repro.fuzz_case = minimized;
    for (const auto& violation : minimized_report.violations) {
      repro.checks.push_back(violation.check);
    }
    fuzz::write_repro_file(repro_path, repro);
    std::cout << "wrote " << repro_path << "\n";
    write_incident_file(repro_path, minimized);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::CampaignOptions options;
  std::string repro_path, json_path, replay_path, live_path;
  std::uint64_t case_seed = 0;
  bool have_case_seed = false;
  long live_interval_ms = 1000;

  try {
    cli::ArgCursor args(argc, argv);
    while (args.next()) {
      const std::string& flag = args.flag();
      if (flag == "--help" || flag == "-h") {
        print_help();
        return 0;
      } else if (flag == "--cases") {
        options.cases = args.count();
      } else if (flag == "--seed") {
        options.campaign_seed = args.seed();
      } else if (flag == "--threads") {
        options.threads = args.count();
      } else if (flag == "--no-shrink") {
        options.shrink_failures = false;
      } else if (flag == "--no-determinism") {
        options.oracle.check_determinism = false;
      } else if (flag == "--case-seed") {
        case_seed = args.seed();
        have_case_seed = true;
      } else if (flag == "--replay") {
        replay_path = args.value();
      } else if (flag == "--repro") {
        repro_path = args.value();
      } else if (flag == "--json") {
        json_path = args.value();
      } else if (flag == "--live") {
        live_path = args.value();
      } else if (flag == "--live-interval-ms") {
        live_interval_ms = static_cast<long>(args.count(LONG_MAX));
        if (live_interval_ms <= 0) {
          throw std::invalid_argument("--live-interval-ms must be positive");
        }
      } else {
        args.unknown();
      }
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }
  if (have_case_seed && !replay_path.empty()) {
    fail("--case-seed and --replay are mutually exclusive");
  }

  try {
    // Single-case modes: judge one case on this thread, no campaign.
    if (have_case_seed) {
      const fuzz::ScenarioSampler sampler;
      return run_single(sampler.sample(case_seed), options, repro_path, {});
    }
    if (!replay_path.empty()) {
      const fuzz::Repro repro = fuzz::read_repro_file(replay_path);
      return run_single(repro.fuzz_case, options, repro_path, repro.checks);
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }

  obs::Hub hub;
  obs::LiveTap live;
  options.obs = &hub;
  options.live = live_path.empty() ? nullptr : &live;

  fuzz::CampaignResult result;
  {
    std::optional<obs::LiveDrainer> drainer;
    if (!live_path.empty()) {
      drainer.emplace(live, live_path, "dopefuzz", "case", live_interval_ms);
    }
    try {
      result = fuzz::run_campaign(options);
    } catch (const std::exception& e) {
      drainer.reset();
      fail(e.what());
    }
  }

  std::cout << "== dopefuzz: " << result.cases.size() << " cases, "
            << result.failures.size() << " failed, " << result.total_runs
            << " scenario runs (seed " << options.campaign_seed << ") ==\n";
  fuzz::print_failures(std::cout, result);

  if (!result.failures.empty() && !repro_path.empty()) {
    const fuzz::Failure& first = result.failures.front();
    fuzz::Repro repro;
    repro.fuzz_case = first.minimized;
    for (const auto& violation : first.minimized_report.violations) {
      repro.checks.push_back(violation.check);
    }
    fuzz::write_repro_file(repro_path, repro);
    std::cout << "wrote " << repro_path << "\n";
    write_incident_file(repro_path, first.minimized);
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) fail("cannot write " + json_path);
    fuzz::write_campaign_json(out, result);
    std::cout << "wrote " << json_path << "\n";
  }
  return result.ok() ? 0 : 1;
}
