#include "fuzz/fuzzer.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>

#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"
#include "obs/json.hpp"

namespace dope::fuzz {

namespace {

// Progress instruments shared by the worker tasks, laid out like the
// sweep runner's. Registry instruments and the live tally are not
// thread-safe, so every post-spawn touch happens under `mu`; the clang
// -Wthread-safety lane proves it. The pointers themselves are set once
// before the pool spawns.
struct ProgressBoard {
  std::mutex mu;
  obs::Counter* completed PT_GUARDED_BY(mu) = nullptr;
  obs::Counter* failed PT_GUARDED_BY(mu) = nullptr;
  obs::Counter* shrink_steps PT_GUARDED_BY(mu) = nullptr;
  obs::LiveSnapshot tally GUARDED_BY(mu);
};

}  // namespace

CampaignResult run_campaign(const CampaignOptions& options) {
  const ScenarioSampler sampler;

  CampaignResult merged;
  merged.campaign_seed = options.campaign_seed;
  merged.cases.resize(options.cases);
  // Failure slots are pre-sized too so workers can write by index; the
  // empty ones are compacted after the join (still index order).
  std::vector<Failure> failure_slots(options.cases);
  // Not vector<bool>: workers flag distinct indices concurrently.
  std::vector<std::uint8_t> failed(options.cases, 0);

  // Progress instruments. The registry is not thread-safe, so create
  // them up front on this thread.
  ProgressBoard board;
  if (options.obs != nullptr) {
    auto& registry = options.obs->registry();
    registry.counter("fuzz.cases_total")
        .inc(static_cast<double>(options.cases));
    board.completed = &registry.counter("fuzz.cases_completed");
    board.failed = &registry.counter("fuzz.cases_failed");
    board.shrink_steps = &registry.counter("fuzz.shrink_steps");
  }
  {
    std::lock_guard<std::mutex> lock(board.mu);
    board.tally.runs_total = options.cases;
    if (options.live != nullptr) options.live->publish(board.tally);
  }

  std::atomic<std::size_t> total_runs{0};

  ThreadPool pool(options.threads);
  for (std::size_t i = 0; i < options.cases; ++i) {
    pool.submit([&, i] {
      // dope-lint: allow(wall-clock) — host-side progress telemetry;
      // never reaches the merged campaign result.
      const auto start = std::chrono::steady_clock::now();
      CaseRecord& record = merged.cases[i];  // slot i: merge is by index
      record.index = i;
      record.case_seed =
          ScenarioSampler::derive_case_seed(options.campaign_seed, i);
      const FuzzCase fuzz_case = sampler.sample(record.case_seed);
      record.label = fuzz_case.label();
      record.report = run_oracle(fuzz_case, options.oracle);
      std::size_t case_runs = record.report.runs;
      std::size_t case_shrink_steps = 0;
      if (!record.report.ok()) {
        failed[i] = 1;
        Failure& failure = failure_slots[i];
        failure.index = i;
        failure.original = fuzz_case;
        failure.report = record.report;
        failure.minimized = fuzz_case;
        failure.minimized_report = record.report;
        if (options.shrink_failures) {
          ShrinkResult shrunk =
              shrink(fuzz_case, record.report, {options.oracle});
          case_runs += shrunk.total_runs;
          case_shrink_steps = shrunk.steps;
          failure.minimized = std::move(shrunk.minimized);
          failure.minimized_report = std::move(shrunk.report);
          failure.shrink_steps = shrunk.steps;
          failure.shrink_attempts = shrunk.attempts;
        }
      }
      total_runs.fetch_add(case_runs, std::memory_order_relaxed);
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              // dope-lint: allow(wall-clock) — same telemetry read.
              std::chrono::steady_clock::now() - start)
              .count();
      if (options.obs != nullptr || options.live != nullptr) {
        std::lock_guard<std::mutex> lock(board.mu);
        if (options.obs != nullptr) {
          board.completed->inc();
          if (failed[i] != 0) board.failed->inc();
          if (case_shrink_steps > 0) {
            board.shrink_steps->inc(static_cast<double>(case_shrink_steps));
          }
        }
        if (options.live != nullptr) {
          board.tally.record(failed[i] == 0, elapsed_ms);
          options.live->publish(board.tally);
        }
      }
    });
  }
  pool.wait_idle();
  if (options.live != nullptr) {
    std::lock_guard<std::mutex> lock(board.mu);
    board.tally.done = true;
    options.live->publish(board.tally);
  }

  merged.total_runs = total_runs.load();
  for (std::size_t i = 0; i < options.cases; ++i) {
    if (failed[i] != 0) {
      merged.failures.push_back(std::move(failure_slots[i]));
    }
  }
  return merged;
}

void print_failures(std::ostream& out, const CampaignResult& result) {
  for (const auto& failure : result.failures) {
    out << "FAIL " << failure.original.label() << "\n";
    out << "  checks: " << failure.report.summary() << "\n";
    if (failure.shrink_steps > 0) {
      out << "  shrunk: " << failure.minimized.label() << " ("
          << failure.shrink_steps << " steps, " << failure.shrink_attempts
          << " attempts) -> " << failure.minimized_report.summary() << "\n";
    }
    out << "  repro:  dopefuzz --case-seed " << failure.original.case_seed
        << "\n";
  }
}

void write_campaign_json(std::ostream& out, const CampaignResult& result) {
  out << "{\n  \"campaign_seed\": \"" << result.campaign_seed << "\",\n";
  out << "  \"cases\": " << result.cases.size() << ",\n";
  out << "  \"failures\": " << result.failures.size() << ",\n";
  out << "  \"scenario_runs\": " << result.total_runs << ",\n";
  out << "  \"failing_cases\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    const auto& failure = result.failures[i];
    out << (i > 0 ? ",\n    " : "\n    ");
    out << "{\"case_seed\": \"" << failure.original.case_seed
        << "\", \"label\": ";
    obs::write_json_string(out, failure.original.label());
    out << ", \"checks\": [";
    for (std::size_t j = 0; j < failure.report.violations.size(); ++j) {
      if (j > 0) out << ", ";
      obs::write_json_string(out, failure.report.violations[j].check);
    }
    out << "], \"shrink_steps\": " << failure.shrink_steps << "}";
  }
  out << (result.failures.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
}

}  // namespace dope::fuzz
