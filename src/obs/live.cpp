#include "obs/live.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace dope::obs {

void LiveSnapshot::record(bool ok, double wall_ms) {
  ++runs_completed;
  if (!ok) ++runs_failed;
  wall_ms_sum += wall_ms;
  wall_ms_min = wall_ms_count == 0 ? wall_ms : std::min(wall_ms_min, wall_ms);
  wall_ms_max = std::max(wall_ms_max, wall_ms);
  ++wall_ms_count;
}

void LiveTap::publish(LiveSnapshot snap) {
  std::lock_guard<std::mutex> lock(mu_);
  snap.seq = latest_.seq + 1;
  latest_ = snap;
}

bool LiveTap::latest(LiveSnapshot& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (latest_.seq == 0) return false;
  out = latest_;
  return true;
}

std::uint64_t LiveTap::published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_.seq;
}

void write_live_json(std::ostream& out, const LiveSnapshot& snap) {
  out << "{\"seq\": " << snap.seq << ", \"done\": "
      << (snap.done ? "true" : "false")
      << ", \"runs_total\": " << snap.runs_total
      << ", \"runs_completed\": " << snap.runs_completed
      << ", \"runs_failed\": " << snap.runs_failed
      << ", \"wall_ms_count\": " << snap.wall_ms_count
      << ", \"wall_ms_sum\": ";
  write_json_number(out, snap.wall_ms_sum);
  out << ", \"wall_ms_min\": ";
  write_json_number(out, snap.wall_ms_min);
  out << ", \"wall_ms_max\": ";
  write_json_number(out, snap.wall_ms_max);
  out << ", \"wall_ms_mean\": ";
  write_json_number(out, snap.wall_ms_count > 0
                             ? snap.wall_ms_sum /
                                   static_cast<double>(snap.wall_ms_count)
                             : 0.0);
  out << "}\n";
}

void write_live_prometheus(std::ostream& out, const LiveSnapshot& snap) {
  const auto gauge = [&out](const char* name, double value,
                            const char* help) {
    out << "# HELP " << name << " " << help << "\n"
        << "# TYPE " << name << " gauge\n"
        << name << " ";
    write_json_number(out, value);
    out << "\n";
  };
  gauge("dope_sweep_runs_total", static_cast<double>(snap.runs_total),
        "Grid points in the sweep.");
  gauge("dope_sweep_runs_completed",
        static_cast<double>(snap.runs_completed),
        "Grid points finished (ok or failed).");
  gauge("dope_sweep_runs_failed", static_cast<double>(snap.runs_failed),
        "Grid points whose scenario threw.");
  gauge("dope_sweep_run_wall_ms_sum", snap.wall_ms_sum,
        "Total wall-clock milliseconds over completed runs.");
  gauge("dope_sweep_run_wall_ms_count",
        static_cast<double>(snap.wall_ms_count),
        "Completed runs contributing to wall-clock stats.");
  gauge("dope_sweep_done", snap.done ? 1.0 : 0.0,
        "1 once the whole grid has drained.");
}

namespace {

bool replace_with(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << contents;
    if (!out.flush()) return false;
  }
  // POSIX rename atomically replaces the target: readers see either the
  // old snapshot or the new one, never a partial file.
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string prom_sibling(std::string path) {
  const std::string suffix = ".json";
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
          0) {
    path.resize(path.size() - suffix.size());
  }
  return path + ".prom";
}

}  // namespace

LiveDrainer::LiveDrainer(const LiveTap& tap, std::string json_path,
                         std::string tool, std::string unit,
                         long interval_ms)
    : tap_(tap),
      json_path_(std::move(json_path)),
      prom_path_(prom_sibling(json_path_)),
      tool_(std::move(tool)),
      unit_(std::move(unit)),
      interval_ms_(interval_ms),
      thread_([this] { loop(); }) {}

LiveDrainer::~LiveDrainer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void LiveDrainer::loop() {
  for (;;) {
    emit();
    std::unique_lock<std::mutex> lock(mu_);
    // The analysis cannot see that a condition-variable predicate runs
    // with the waiter's lock re-acquired.
    wake_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this]() NO_THREAD_SAFETY_ANALYSIS { return stopping_; });
    if (stopping_) break;
  }
  emit();  // final state, including done=true
}

void LiveDrainer::emit() {
  LiveSnapshot snap;
  if (!tap_.latest(snap) || snap.seq == last_seq_) return;
  last_seq_ = snap.seq;
  std::ostringstream json, prom;
  write_live_json(json, snap);
  write_live_prometheus(prom, snap);
  replace_with(json_path_, json.str());
  replace_with(prom_path_, prom.str());
  std::cerr << tool_ << ": " << snap.runs_completed << "/"
            << snap.runs_total << " " << unit_ << "s";
  if (snap.runs_failed > 0) {
    std::cerr << " (" << snap.runs_failed << " failed)";
  }
  if (snap.wall_ms_count > 0) {
    std::cerr << ", mean "
              << snap.wall_ms_sum / static_cast<double>(snap.wall_ms_count)
              << " ms/" << unit_;
  }
  std::cerr << "\n";
}

}  // namespace dope::obs
