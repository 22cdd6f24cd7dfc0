// Runtime physics-invariant auditing (tier 3 of the correctness stack;
// see docs/ANALYSIS.md).
//
// Debug builds (or any build configured with -DDOPE_AUDIT=ON) compile
// invariant checks into the simulator's accounting paths: battery state
// of charge and rated charge/discharge power, per-slot cluster power
// conservation, DPM post-solve budget feasibility (paper Eq. 1),
// non-negative latency/queue metrics, and monotonic engine time. Release
// builds compile every instrumented call site out: call sites are
// guarded with `if constexpr (audit::kEnabled)`, so when the option is
// off neither the check nor its argument computation exists in the
// binary.
//
// Checks are read-only and report-only: a violation is logged, counted
// in a process-wide atomic, and — when the component runs under an
// attached obs::Hub — raised through the alert watchdog (which mirrors
// it into the trace as kAlertRaised). A healthy run therefore produces
// byte-identical simulation output with auditing on or off; only a
// *violating* run differs, and then only by the alert/log it emits.
//
// The check functions themselves are *not* gated on kEnabled, so tests
// can drive every invariant class with deliberately corrupted values in
// any build configuration. Hub-aware reporting is a template: common/
// stays free of a hard obs dependency, and only call sites that pass a
// real obs::Hub* (which already include obs/hub.hpp and link dope_obs)
// instantiate the watchdog path. Pass `nullptr` where no hub exists
// (battery, DPM solver): the violation is still logged and counted.
//
// Hard-fail modes (fuzz oracle / test assertions):
//   * `ScopedCollector` — a thread-local RAII scope that additionally
//     *returns* every violation to the caller as structured `Violation`
//     records. One collector per thread at a time (scopes nest; the
//     innermost wins), so parallel fuzz workers each observe only their
//     own run's violations.
//   * `DOPE_AUDIT=FATAL` in the environment (or `set_mode(Mode::kFatal)`)
//     — a violation throws `AuditFailure` after being logged and counted,
//     turning any audited binary into a hard gate. A collector scope
//     suppresses the throw: collecting *is* the caller's failure
//     handling.
// Neither mode changes the bytes a healthy run produces, and the
// default (no env var, no collector) remains log-and-count only.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "common/units.hpp"

namespace dope::audit {

#ifdef DOPE_AUDIT_ENABLED
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Tolerances for power/energy comparisons: doubles integrated over many
/// slots accumulate rounding, so checks use abs + rel slack.
inline constexpr double kAbsEps = 1e-6;
inline constexpr double kRelEps = 1e-9;

/// One recorded invariant violation, as returned to collectors.
struct Violation {
  Time t = -1;
  std::string check;
  std::string message;
};

/// Thrown on violation in `Mode::kFatal` (outside any collector scope).
class AuditFailure : public std::runtime_error {
 public:
  explicit AuditFailure(Violation violation)
      : std::runtime_error("audit violation [" + violation.check +
                           "]: " + violation.message),
        violation_(std::move(violation)) {}

  const Violation& violation() const { return violation_; }

 private:
  Violation violation_;
};

/// How a violation propagates beyond the log line and the counter.
enum class Mode { kReport, kFatal };

class ScopedCollector;

namespace detail {
inline std::atomic<std::uint64_t> g_violations{0};
/// -1 = not yet resolved from the environment; else a Mode value.
inline std::atomic<int> g_mode{-1};
inline thread_local ScopedCollector* t_collector = nullptr;
}  // namespace detail

/// Process-wide violation count (all runs, all threads).
inline std::uint64_t violation_count() {
  return detail::g_violations.load(std::memory_order_relaxed);
}

inline void reset_violations() {
  detail::g_violations.store(0, std::memory_order_relaxed);
}

/// Overrides the reporting mode (tests); wins over the environment.
inline void set_mode(Mode mode) {
  detail::g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

/// Active mode: `set_mode` override, else `DOPE_AUDIT=FATAL` in the
/// environment, else report-only. Resolved once and cached.
inline Mode mode() {
  int m = detail::g_mode.load(std::memory_order_relaxed);
  if (m < 0) {
    const char* env = std::getenv("DOPE_AUDIT");
    m = static_cast<int>(env != nullptr && std::string_view(env) == "FATAL"
                             ? Mode::kFatal
                             : Mode::kReport);
    detail::g_mode.store(m, std::memory_order_relaxed);
  }
  return static_cast<Mode>(m);
}

/// RAII scope that captures this thread's violations as records the
/// caller can assert on. Scopes nest; the innermost collects. While a
/// collector is active, `Mode::kFatal` does not throw on this thread —
/// the caller is explicitly handling failures.
class ScopedCollector {
 public:
  ScopedCollector() : prev_(detail::t_collector) {
    detail::t_collector = this;
  }
  ~ScopedCollector() { detail::t_collector = prev_; }

  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

  const std::vector<Violation>& violations() const { return violations_; }
  bool empty() const { return violations_.empty(); }
  std::size_t size() const { return violations_.size(); }

  void add(Violation violation) {
    violations_.push_back(std::move(violation));
  }

 private:
  ScopedCollector* prev_;
  std::vector<Violation> violations_;
};

/// a <= b up to mixed absolute/relative tolerance at magnitude `scale`.
inline bool approx_le(double a, double b, double scale = 1.0) {
  return a <= b + kAbsEps + kRelEps * (scale < 0 ? -scale : scale);
}

inline bool approx_eq(double a, double b, double scale = 1.0) {
  return approx_le(a, b, scale) && approx_le(b, a, scale);
}

/// Counts and logs one violation. `t` is sim time (-1 when unknown).
/// Hands the record to this thread's collector when one is in scope;
/// otherwise throws in `Mode::kFatal`.
inline void report_logged(Time t, std::string_view check,
                          const std::string& message) {
  detail::g_violations.fetch_add(1, std::memory_order_relaxed);
  DOPE_LOG_ERROR << "audit violation [" << check << "] t=" << t << "us: "
                 << message;
  Violation violation{t, std::string(check), message};
  if (detail::t_collector != nullptr) {
    detail::t_collector->add(std::move(violation));
    return;
  }
  if (mode() == Mode::kFatal) throw AuditFailure(std::move(violation));
}

/// Reports a violation, additionally raising it through the run's alert
/// watchdog when a hub is attached. `Hub` is always `obs::Hub*` (or
/// std::nullptr_t); it is a template parameter only so common/ need not
/// include obs headers — instantiating TUs already do.
template <typename Hub>
void report(Hub hub, Time t, std::string_view check,
            const std::string& message) {
  if constexpr (!std::is_same_v<Hub, std::nullptr_t>) {
    // Flight-recorder snapshot *before* report_logged: in Mode::kFatal
    // (no collector) report_logged throws, and the incident bundle must
    // exist by then. The hook is a no-op without a flight recorder.
    if (hub != nullptr && mode() == Mode::kFatal &&
        detail::t_collector == nullptr) {
      hub->audit_failure(t, check, message);
    }
  }
  report_logged(t, check, message);
  if constexpr (!std::is_same_v<Hub, std::nullptr_t>) {
    if (hub != nullptr) {
      auto& dog = hub->watchdog();
      const std::string signal = "audit." + std::string(check);
      bool have_rule = false;
      for (const auto& rule : dog.rules()) {
        if (rule.name == signal) {
          have_rule = true;
          break;
        }
      }
      if (!have_rule) {
        // Lazily installed on first violation only, so a clean run's
        // watchdog state (and trace bytes) are untouched by auditing.
        using Rule = std::remove_cv_t<
            std::remove_reference_t<decltype(dog.rules().front())>>;
        Rule rule;
        rule.name = signal;
        rule.signal = signal;
        rule.threshold = 0.5;
        rule.consecutive = 1;
        rule.clear_after = 1;
        dog.add_rule(rule);
      }
      dog.observe(signal, t < 0 ? 0 : t, 1.0);
    }
  }
}

// --- invariant classes ------------------------------------------------
// Each returns true when the invariant holds. All are usable directly
// from tests with corrupted inputs; instrumented call sites wrap them in
// `if constexpr (audit::kEnabled)`.

/// Battery stored energy must stay within [0, capacity].
template <typename Hub>
bool check_battery_soc(Hub hub, Time t, Joules stored, Joules capacity) {
  if (stored.value() >= -kAbsEps &&
      approx_le(stored.value(), capacity.value(), capacity.value())) {
    return true;
  }
  std::ostringstream msg;
  msg << "battery stored energy " << stored.value() << " J outside [0, "
      << capacity.value() << "] J";
  report(hub, t, "battery_soc", msg.str());
  return false;
}

/// Delivered/drawn battery power must respect the rated limit
/// (`rated <= 0` means unlimited).
template <typename Hub>
bool check_battery_rate(Hub hub, Time t, Watts actual, Watts rated,
                        std::string_view which) {
  if (actual.value() >= -kAbsEps &&
      (rated.value() <= 0.0 ||
       approx_le(actual.value(), rated.value(), rated.value()))) {
    return true;
  }
  std::ostringstream msg;
  msg << which << " power " << actual.value() << " W outside rated limit "
      << rated.value() << " W";
  report(hub, t, "battery_rate", msg.str());
  return false;
}

/// Slot energy books must balance: utility + battery covers the load,
/// no component negative, and utility never exceeds the load drawn.
template <typename Hub>
bool check_power_conservation(Hub hub, Time t, Joules slot_energy,
                              Joules utility, Joules battery_delta) {
  const double scale =
      slot_energy.value() < 1.0 ? 1.0 : slot_energy.value();
  if (slot_energy.value() >= -kAbsEps && utility.value() >= -kAbsEps &&
      battery_delta.value() >= -kAbsEps &&
      approx_le(slot_energy.value(),
                utility.value() + battery_delta.value(), scale) &&
      approx_le(utility.value(), slot_energy.value(), scale)) {
    return true;
  }
  std::ostringstream msg;
  msg << "slot energy books do not balance: load=" << slot_energy.value()
      << " J, utility=" << utility.value()
      << " J, battery=" << battery_delta.value() << " J";
  report(hub, t, "power_conservation", msg.str());
  return false;
}

/// DPM post-solve feasibility (paper Eq. 1): the solved assignment's
/// estimated power fits the allowance, unless every node already sits
/// at the ladder floor (budget infeasible even fully throttled).
template <typename Hub>
bool check_budget_feasible(Hub hub, Time t, Watts estimated,
                           Watts allowance, bool all_at_floor) {
  if (all_at_floor ||
      approx_le(estimated.value(), allowance.value(),
                allowance.value() < 1.0 ? 1.0 : allowance.value())) {
    return true;
  }
  std::ostringstream msg;
  msg << "post-solve assignment power " << estimated.value()
      << " W exceeds allowance " << allowance.value()
      << " W with headroom left on the ladder";
  report(hub, t, "dpm_budget", msg.str());
  return false;
}

/// Queue depths, latencies, demands, ... must be non-negative.
template <typename Hub>
bool check_non_negative(Hub hub, Time t, std::string_view what,
                        double value) {
  if (value >= -kAbsEps) return true;
  std::ostringstream msg;
  msg << what << " is negative: " << value;
  report(hub, t, "negative_metric", msg.str());
  return false;
}

/// A backend's published load-balancing key must match the state it was
/// published from: a stale key steers least-loaded picks to the wrong
/// node without any other symptom.
template <typename Hub>
bool check_lb_key(Hub hub, Time t, int server, std::uint32_t published,
                  std::uint32_t expected) {
  if (published == expected) return true;
  std::ostringstream msg;
  msg << "server " << server << " publishes lb key " << published
      << " but its state implies " << expected;
  report(hub, t, "lb_key", msg.str());
  return false;
}

/// Engine time must never move backwards.
template <typename Hub>
bool check_monotonic_time(Hub hub, Time now, Time next) {
  if (next >= now) return true;
  std::ostringstream msg;
  msg << "event time " << next << "us precedes engine clock " << now
      << "us";
  report(hub, now, "engine_time", msg.str());
  return false;
}

}  // namespace dope::audit
