#include "sweep/sweep.hpp"

#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "common/argv.hpp"
#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"

namespace dope::sweep {

namespace {

// Progress instruments shared by the worker tasks. Registry instruments
// and the live tally are not thread-safe, so every post-spawn touch
// happens under `mu`; the clang -Wthread-safety lane proves it. The
// pointers themselves are set once before the pool spawns.
struct ProgressBoard {
  std::mutex mu;
  obs::Counter* completed PT_GUARDED_BY(mu) = nullptr;
  obs::Counter* failed PT_GUARDED_BY(mu) = nullptr;
  obs::Histo* wall_ms PT_GUARDED_BY(mu) = nullptr;
  obs::LiveSnapshot tally GUARDED_BY(mu);
};

}  // namespace

AttackProfile AttackProfile::dope(double rps) {
  AttackProfile p;
  p.name = "dope-" + std::to_string(static_cast<long long>(rps));
  p.rps = rps;
  p.mixture = workload::Mixture(
      {workload::Catalog::kCollaFilt, workload::Catalog::kKMeans,
       workload::Catalog::kWordCount},
      {1.0, 1.0, 1.0});
  return p;
}

AttackProfile AttackProfile::none() { return AttackProfile{}; }

std::size_t GridSpec::size() const {
  const auto dim = [](std::size_t n) { return n == 0 ? 1 : n; };
  return dim(budgets.size()) * dim(schemes.size()) * dim(attacks.size()) *
         dim(variants.size()) * dim(seeds.size());
}

std::string RunPoint::label() const {
  return power::budget_name(budget) + "/" + scenario::scheme_name(scheme) +
         "/" + attack + "/" + variant + "/seed-" + std::to_string(seed);
}

std::vector<RunPoint> expand(const GridSpec& grid) {
  const auto dim = [](std::size_t n) { return n == 0 ? 1 : n; };
  const std::size_t nb = dim(grid.budgets.size());
  const std::size_t ns = dim(grid.schemes.size());
  const std::size_t na = dim(grid.attacks.size());
  const std::size_t nv = dim(grid.variants.size());
  const std::size_t nk = dim(grid.seeds.size());

  std::vector<RunPoint> points;
  points.reserve(nb * ns * na * nv * nk);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t s = 0; s < ns; ++s) {
      for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t v = 0; v < nv; ++v) {
          for (std::size_t k = 0; k < nk; ++k) {
            RunPoint p;
            p.index = points.size();
            p.budget_i = b;
            p.scheme_i = s;
            p.attack_i = a;
            p.variant_i = v;
            p.seed_i = k;
            p.budget = grid.budgets.empty() ? grid.base.budget
                                            : grid.budgets[b];
            p.scheme = grid.schemes.empty() ? grid.base.scheme
                                            : grid.schemes[s];
            if (!grid.attacks.empty()) p.attack = grid.attacks[a].name;
            if (!grid.variants.empty()) p.variant = grid.variants[v].name;
            p.seed = grid.seeds.empty() ? grid.base.seed : grid.seeds[k];
            points.push_back(std::move(p));
          }
        }
      }
    }
  }
  return points;
}

scenario::ScenarioConfig materialize(const GridSpec& grid,
                                     const RunPoint& point) {
  scenario::ScenarioConfig config = grid.base;
  // A hub attached to the base prototype must not leak into (possibly
  // concurrent) grid runs; progress goes through SweepRunner's own hub.
  config.obs = nullptr;
  config.default_alert_rules = false;

  if (!grid.budgets.empty()) config.budget = point.budget;
  if (!grid.schemes.empty()) config.scheme = point.scheme;
  if (!grid.attacks.empty()) {
    const AttackProfile& attack = grid.attacks[point.attack_i];
    config.attack_rps = attack.rps;
    config.attack_mixture = attack.mixture;
    config.attack_rate_plan = attack.rate_plan;
    config.attack_start = attack.start;
    config.attack_stop = attack.stop;
  }
  if (!grid.seeds.empty()) config.seed = point.seed;
  if (!grid.variants.empty() && grid.variants[point.variant_i].apply) {
    grid.variants[point.variant_i].apply(config);
  }
  return config;
}

void SweepResult::require_all_ok() const {
  for (const auto& run : runs) {
    if (!run.ok) {
      throw std::runtime_error("sweep run " + run.point.label() +
                               " failed: " + run.error);
    }
  }
}

SweepRunner::SweepRunner(Options options) : options_(options) {}

SweepResult SweepRunner::run(const GridSpec& grid) const {
  const auto points = expand(grid);

  SweepResult merged;
  merged.runs.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    merged.runs[i].point = points[i];
  }

  // Progress instruments. The registry is not thread-safe, so create
  // them up front on this thread and serialise updates below.
  ProgressBoard board;
  if (options_.obs != nullptr) {
    auto& registry = options_.obs->registry();
    registry.counter("sweep.runs_total").inc(
        static_cast<double>(points.size()));
    board.completed = &registry.counter("sweep.runs_completed");
    board.failed = &registry.counter("sweep.runs_failed");
    board.wall_ms = &registry.histo("sweep.run_wall_ms");
  }
  // Live-tap tally, mutated only under board.mu; each update publishes
  // a complete snapshot so concurrent readers always see consistent
  // totals. Published once up front so "0 of N" is visible immediately.
  {
    std::lock_guard<std::mutex> lock(board.mu);
    board.tally.runs_total = points.size();
    if (options_.live != nullptr) options_.live->publish(board.tally);
  }

  ThreadPool pool(options_.threads);
  for (std::size_t i = 0; i < points.size(); ++i) {
    pool.submit([&, i] {
      RunRecord& record = merged.runs[i];  // slot i: merge is by index
      // dope-lint: allow(wall-clock) — host-side progress telemetry
      // (sweep.run_wall_ms); never reaches the merged report bytes.
      const auto start = std::chrono::steady_clock::now();
      try {
        const auto config = materialize(grid, record.point);
        record.result =
            options_.capture_incidents
                ? scenario::run_capturing_incidents(
                      config, record.point.label(), record.incident_bundle)
                : scenario::run_scenario(config);
        record.ok = true;
      } catch (const std::exception& e) {
        record.error = e.what();
      } catch (...) {
        record.error = "unknown exception";
      }
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              // dope-lint: allow(wall-clock) — same telemetry read.
              std::chrono::steady_clock::now() - start)
              .count();
      if (options_.obs != nullptr || options_.live != nullptr) {
        std::lock_guard<std::mutex> lock(board.mu);
        if (options_.obs != nullptr) {
          board.completed->inc();
          if (!record.ok) board.failed->inc();
          board.wall_ms->observe(elapsed_ms);
        }
        if (options_.live != nullptr) {
          board.tally.record(record.ok, elapsed_ms);
          options_.live->publish(board.tally);
        }
      }
    });
  }
  pool.wait_idle();
  if (options_.live != nullptr) {
    std::lock_guard<std::mutex> lock(board.mu);
    board.tally.done = true;
    options_.live->publish(board.tally);
  }

  for (const auto& run : merged.runs) {
    if (!run.ok) ++merged.failures;
  }
  return merged;
}

std::vector<scenario::ScenarioResult> run_grid(const GridSpec& grid,
                                               std::size_t threads) {
  auto sweep = SweepRunner({.threads = threads}).run(grid);
  sweep.require_all_ok();
  std::vector<scenario::ScenarioResult> results;
  results.reserve(sweep.runs.size());
  for (auto& run : sweep.runs) results.push_back(std::move(run.result));
  return results;
}

// ---- grid-spec parsing ----

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  const auto flush = [&] {
    const auto first = item.find_first_not_of(" \t");
    if (first != std::string::npos) {
      const auto last = item.find_last_not_of(" \t");
      out.push_back(item.substr(first, last - first + 1));
    }
    item.clear();
  };
  for (const char c : csv) {
    if (c == ',') {
      flush();
    } else {
      item += c;
    }
  }
  flush();
  return out;
}

scenario::SchemeKind parse_scheme(const std::string& name) {
  if (name == "none") return scenario::SchemeKind::kNone;
  if (name == "capping") return scenario::SchemeKind::kCapping;
  if (name == "shaving") return scenario::SchemeKind::kShaving;
  if (name == "token") return scenario::SchemeKind::kToken;
  if (name == "antidope") return scenario::SchemeKind::kAntiDope;
  throw std::invalid_argument("unknown scheme: " + name);
}

power::BudgetLevel parse_budget(const std::string& name) {
  if (name == "normal") return power::BudgetLevel::kNormal;
  if (name == "high") return power::BudgetLevel::kHigh;
  if (name == "medium") return power::BudgetLevel::kMedium;
  if (name == "low") return power::BudgetLevel::kLow;
  throw std::invalid_argument("unknown budget level: " + name);
}

AttackProfile parse_attack(const std::string& spec, Duration duration) {
  if (spec == "none") return AttackProfile::none();
  const auto parse_number = [&spec](const std::string& field) {
    const auto value = cli::to_number(field);
    if (!value) throw std::invalid_argument("bad attack spec: " + spec);
    return *value;
  };
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (kind == "dope" && colon != std::string::npos) {
    return AttackProfile::dope(parse_number(spec.substr(colon + 1)));
  }
  if (kind == "pulse" && colon != std::string::npos) {
    const auto rest = spec.substr(colon + 1);
    const auto colon2 = rest.find(':');
    if (colon2 == std::string::npos) {
      throw std::invalid_argument("bad attack spec: " + spec +
                                  " (want pulse:RPS:PERIOD_S)");
    }
    const double rps = parse_number(rest.substr(0, colon2));
    const Duration period = seconds(parse_number(rest.substr(colon2 + 1)));
    if (period <= 0) {
      throw std::invalid_argument("bad attack spec: " + spec +
                                  " (period must be positive)");
    }
    auto profile = AttackProfile::dope(rps);
    profile.name = "pulse-" + rest.substr(0, colon2) + "-" +
                   rest.substr(colon2 + 1) + "s";
    for (Time t = 0; t < duration; t += period) {
      profile.rate_plan.push_back({t, rps});
      profile.rate_plan.push_back({t + period / 2, 0.0});
    }
    return profile;
  }
  throw std::invalid_argument("unknown attack spec: " + spec);
}

std::vector<scenario::SchemeKind> parse_scheme_list(const std::string& csv) {
  std::vector<scenario::SchemeKind> out;
  for (const auto& name : split_list(csv)) out.push_back(parse_scheme(name));
  return out;
}

std::vector<power::BudgetLevel> parse_budget_list(const std::string& csv) {
  std::vector<power::BudgetLevel> out;
  for (const auto& name : split_list(csv)) out.push_back(parse_budget(name));
  return out;
}

std::vector<std::uint64_t> parse_seed_list(const std::string& csv) {
  std::vector<std::uint64_t> out;
  for (const auto& field : split_list(csv)) {
    const auto seed = cli::to_unsigned(field, 0);  // accepts 0x prefixes
    if (!seed) throw std::invalid_argument("bad seed: " + field);
    out.push_back(*seed);
  }
  return out;
}

std::vector<AttackProfile> parse_attack_list(const std::string& csv,
                                             Duration duration) {
  std::vector<AttackProfile> out;
  for (const auto& spec : split_list(csv)) {
    out.push_back(parse_attack(spec, duration));
  }
  return out;
}

}  // namespace dope::sweep
