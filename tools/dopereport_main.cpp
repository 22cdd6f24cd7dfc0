// dopereport — incident post-mortems from flight-recorder bundles.
//
// Reads one dope_incident_bundle JSON document (written by
// `dopesim_cli --incidents-out`, `dopesweep --incidents-out` entries,
// or the fuzz harness) and renders either a human-facing markdown
// post-mortem or a compact JSON digest. Pure text transformation: the
// same bundle renders byte-identically everywhere.
//
//   $ ./dopereport incidents.json                 # markdown to stdout
//   $ ./dopereport --json incidents.json          # digest JSON
//   $ ./dopereport incidents.json -o postmortem.md
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/argv.hpp"
#include "obs/report.hpp"

namespace {

void print_help() {
  std::cout <<
      R"(dopereport — render flight-recorder incident bundles

usage: dopereport [options] BUNDLE.json

  --json               emit the machine-readable digest instead of the
                       markdown post-mortem
  -o, --out FILE       write to FILE instead of stdout
  --help               this text

BUNDLE.json is a dope_incident_bundle document (see
docs/OBSERVABILITY.md); "-" reads it from stdin.
)";
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "dopereport: " << message << " (see --help)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string bundle_path, out_path;
  bool want_json = false;

  try {
    dope::cli::ArgCursor args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--help" || arg == "-h") {
        print_help();
        return 0;
      } else if (arg == "--json") {
        want_json = true;
      } else if (arg == "-o" || arg == "--out") {
        out_path = args.value();
      } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
        args.unknown();
      } else if (bundle_path.empty()) {
        bundle_path = arg;
      } else {
        throw std::invalid_argument("only one bundle per invocation (got " +
                                    bundle_path + " and " + arg + ")");
      }
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }
  if (bundle_path.empty()) fail("missing bundle path");

  std::ostringstream buffer;
  if (bundle_path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(bundle_path);
    if (!in) fail("cannot read " + bundle_path);
    buffer << in.rdbuf();
  }

  std::ostringstream rendered;
  try {
    if (want_json) {
      dope::obs::write_postmortem_json(rendered, buffer.str());
    } else {
      dope::obs::write_postmortem_markdown(rendered, buffer.str());
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }

  if (out_path.empty()) {
    std::cout << rendered.str();
  } else {
    std::ofstream out(out_path);
    if (!out) fail("cannot write " + out_path);
    out << rendered.str();
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
