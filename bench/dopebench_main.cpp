// dopebench — the paper's figures as gates; see bench/bench_util.hpp.
#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  return dope::bench::run_dopebench(argc, argv);
}
