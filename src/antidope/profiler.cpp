#include "antidope/profiler.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/stats.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace dope::antidope {

namespace {

/// Probe rate as a fraction of the saturation rate (well below 1, so
/// concurrency rarely reaches the core count).
constexpr double kProbeFactor = 0.4;
/// Overload rate as a multiple of the saturation rate.
constexpr double kOverloadFactor = 1.5;

/// Integrates the active-request count over time to obtain the average
/// concurrency, sampled at every power-relevant transition.
struct ConcurrencyIntegral {
  double weighted_sum = 0.0;
  Time last = 0;
  unsigned last_count = 0;

  void update(Time now, unsigned count) {
    weighted_sum += static_cast<double>(last_count) *
                    static_cast<double>(now - last);
    last = now;
    last_count = count;
  }

  double mean(Time end) {
    update(end, last_count);
    return end == 0 ? 0.0 : weighted_sum / static_cast<double>(end);
  }
};

/// One measurement phase: load a fresh node with `type` at `rate_rps` for
/// `duration`; returns (mean node power, mean concurrency, mean latency).
struct PhaseResult {
  Watts mean_power{0.0};
  double mean_concurrency = 0.0;
  double mean_latency_ms = 0.0;
};

PhaseResult run_phase(const workload::Catalog& catalog,
                      const power::ServerPowerSpec& spec,
                      const power::DvfsLadder& ladder,
                      workload::RequestTypeId type, double rate_rps,
                      Duration duration, std::uint64_t seed) {
  sim::Engine engine;
  OnlineStats latency_ms;
  auto sink = [&latency_ms](const workload::RequestRecord& r) {
    if (r.outcome == workload::RequestOutcome::kCompleted) {
      latency_ms.add(to_millis(r.latency));
    }
  };
  server::ServerConfig server_config;
  server_config.queue_capacity = 256;
  server_config.queue_deadline = 0;  // no client impatience while profiling
  server::ServerNode node(engine, 0, catalog,
                          power::ServerPowerModel(spec, ladder),
                          server_config, sink);

  ConcurrencyIntegral concurrency;
  workload::GeneratorConfig gen_config;
  gen_config.name = "profiler";
  gen_config.mixture = workload::Mixture::single(type);
  gen_config.rate_rps = rate_rps;
  gen_config.seed = seed;
  workload::TrafficGenerator generator(
      engine, catalog, gen_config,
      [&node, &concurrency, &engine](workload::Request&& r) {
        node.submit(std::move(r));
        concurrency.update(engine.now(), node.active_count());
      });
  // Sample concurrency frequently enough to catch completions too.
  auto sampler = engine.every(millis(2.0), [&node, &concurrency, &engine] {
    concurrency.update(engine.now(), node.active_count());
  });

  engine.run_until(duration);
  generator.stop();
  sampler.stop();

  PhaseResult result;
  result.mean_power = node.energy() / duration;
  result.mean_concurrency = concurrency.mean(duration);
  result.mean_latency_ms = latency_ms.mean();
  return result;
}

}  // namespace

std::vector<TypeProfile> profile_catalog(const workload::Catalog& catalog,
                                         const power::ServerPowerSpec& spec,
                                         const power::DvfsLadder& ladder,
                                         const ProfilerConfig& config) {
  DOPE_REQUIRE(config.duration > 0, "profiling duration must be positive");

  const Watts idle =
      power::ServerPowerModel(spec, ladder).idle_power(ladder.max_level());

  std::vector<TypeProfile> out;
  out.reserve(catalog.size());
  for (workload::RequestTypeId type = 0; type < catalog.size(); ++type) {
    const auto& profile = catalog.type(type);
    const double service_s = to_seconds(profile.base_service_time);
    const double saturation_rps =
        static_cast<double>(spec.cores) / service_s;

    // Phase 1 (probe): light load, attribution clean of the clamp.
    const PhaseResult probe =
        run_phase(catalog, spec, ladder, type,
                  saturation_rps * kProbeFactor, config.duration,
                  config.seed + 2 * type);
    // Phase 2 (overload): saturated node power.
    const PhaseResult overload =
        run_phase(catalog, spec, ladder, type,
                  saturation_rps * kOverloadFactor, config.duration,
                  config.seed + 2 * type + 1);

    TypeProfile result;
    result.type = type;
    result.per_request_power =
        probe.mean_concurrency > 1e-9
            ? std::max(Watts{0.0}, (probe.mean_power - idle) /
                                       probe.mean_concurrency)
            : Watts{0.0};
    result.saturated_node_power = overload.mean_power;
    result.base_latency_ms = probe.mean_latency_ms;
    result.saturation_rps = saturation_rps;
    out.push_back(result);
  }
  return out;
}

std::vector<Watts> per_request_powers(
    const std::vector<TypeProfile>& profiles) {
  std::vector<Watts> out(profiles.size(), Watts{0.0});
  for (const auto& p : profiles) {
    DOPE_REQUIRE(p.type < out.size(), "profile type id out of range");
    out[p.type] = p.per_request_power;
  }
  return out;
}

}  // namespace dope::antidope
