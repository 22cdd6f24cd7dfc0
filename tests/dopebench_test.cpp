// dopebench gate: a failed SHAPE claim or a throwing figure makes the run
// fail, the other figures still run, and each figure that returns leaves
// its verdicts in BENCH_<name>.json.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

int passing_runs = 0;
int failing_runs = 0;
int throwing_runs = 0;

}  // namespace

DOPE_BENCH_FIGURE(fake_pass, "Fake 1", "passes") {
  ++passing_runs;
  figure.shape("1 < 2", 1 < 2);
  figure.metric("answer", 42.0);
}

DOPE_BENCH_FIGURE(fake_shape_fails, "Fake 2", "has a false claim") {
  ++failing_runs;
  figure.shape("true claim", true);
  figure.shape("false claim", false);
}

DOPE_BENCH_FIGURE(fake_throws, "Fake 3", "throws") {
  ++throwing_runs;
  figure.shape("checked before the throw", true);
  throw std::runtime_error("figure blew up");
}

namespace {

class DopebenchGate : public ::testing::Test {
 protected:
  void SetUp() override {
    passing_runs = failing_runs = throwing_runs = 0;
    dir_ = std::filesystem::path(::testing::TempDir()) / "dopebench_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Runs dopebench on `argv` (figure names) with reports in `dir_`.
  int run(std::vector<const char*> argv) {
    const std::string dir = dir_.string();
    argv.insert(argv.begin(),
                {"dopebench", "--threads", "1", "--json-dir", dir.c_str()});
    return dope::bench::run_dopebench(static_cast<int>(argv.size()),
                                      argv.data());
  }

  /// Whether BENCH_<name>.json contains `text`.
  bool reported(const std::string& name, const std::string& text) const {
    std::ifstream in(dir_ / ("BENCH_" + name + ".json"));
    std::ostringstream report;
    report << in.rdbuf();
    return report.str().find(text) != std::string::npos;
  }

  std::filesystem::path dir_;
};

TEST_F(DopebenchGate, AnyFailedClaimOrThrowFailsTheRunButAllFiguresRun) {
  EXPECT_EQ(run({}), 1);
  EXPECT_EQ(passing_runs, 1);
  EXPECT_EQ(failing_runs, 1);
  EXPECT_EQ(throwing_runs, 1);
}

TEST_F(DopebenchGate, PassingFigureAloneSucceeds) {
  EXPECT_EQ(run({"fake_pass"}), 0);
  EXPECT_EQ(passing_runs, 1);
  EXPECT_EQ(failing_runs + throwing_runs, 0);
}

TEST_F(DopebenchGate, FailedClaimAloneFails) {
  EXPECT_EQ(run({"fake_shape_fails"}), 1);
  EXPECT_EQ(failing_runs, 1);
}

TEST_F(DopebenchGate, EachReturningFigureWritesItsVerdicts) {
  run({});
  EXPECT_TRUE(reported("fake_pass", R"({"id": "Fake 1", "title": "passes"})"));
  EXPECT_TRUE(reported("fake_pass", R"("1 < 2", "pass": true)"));
  EXPECT_TRUE(reported("fake_pass", R"("answer": 42)"));
  EXPECT_TRUE(reported("fake_shape_fails", R"("true claim", "pass": true)"));
  EXPECT_TRUE(reported("fake_shape_fails", R"("false claim", "pass": false)"));
  // A figure that throws never returns, so it leaves no report.
  EXPECT_FALSE(std::filesystem::exists(dir_ / "BENCH_fake_throws.json"));
}

TEST_F(DopebenchGate, UnknownFigureIsAUsageError) {
  EXPECT_EQ(run({"fig99"}), 2);
  EXPECT_EQ(passing_runs + failing_runs + throwing_runs, 0);
}

}  // namespace
