#include "bench/bench_util.hpp"

#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/argv.hpp"
#include "obs/json.hpp"

namespace dope::bench {

namespace {

struct FigureSpec {
  std::string id;
  std::string title;
  void (*run)(Figure&);
};

/// Every registered figure, keyed (and so run) by name: the order does
/// not depend on static-initialisation order.
std::map<std::string, FigureSpec>& registry() {
  static std::map<std::string, FigureSpec> figures;
  return figures;
}

constexpr const char* kHelp =
    R"(usage: dopebench [--threads N] [--json-dir DIR] [--list] [name ...]
Runs the named paper figures (default: all) on N sweep threads (0 = all
cores), writes DIR/BENCH_<name>.json (default DIR: .), and exits 1 if a
SHAPE claim fails or a figure throws. See bench/bench_util.hpp.
)";

void write_report(std::ostream& out, const FigureSpec& spec,
                  const Figure& figure) {
  out << "{\n  \"figures\": [\n    {\"id\": ";
  obs::write_json_string(out, spec.id);
  out << ", \"title\": ";
  obs::write_json_string(out, spec.title);
  out << "}\n  ],\n  \"shapes\": [";
  for (std::size_t i = 0; i < figure.verdicts.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << "{\"claim\": ";
    obs::write_json_string(out, figure.verdicts[i].first);
    out << ", \"pass\": " << (figure.verdicts[i].second ? "true" : "false")
        << "}";
  }
  out << "\n  ],\n  \"metrics\": {";
  for (std::size_t i = 0; i < figure.metrics.size(); ++i) {
    out << (i ? ",\n    " : "\n    ");
    obs::write_json_string(out, figure.metrics[i].first);
    out << ": ";
    obs::write_json_number(out, figure.metrics[i].second);
  }
  out << "\n  }\n}\n";
}

/// Runs one figure and writes its report; false if it throws, a claim
/// fails or the write fails (reasons go to stderr, which flushes stdout).
bool run_figure(const std::string& name, const FigureSpec& spec,
                std::size_t threads, const std::string& json_dir) {
  std::cout << "\n==================================================\n"
            << spec.id << ": " << spec.title << "\n"
            << "==================================================\n";
  Figure figure;
  figure.threads = threads;
  try {
    spec.run(figure);
  } catch (const std::exception& e) {
    std::cerr << "dopebench: " << name << " threw: " << e.what() << "\n";
    return false;
  }
  const std::string path = json_dir + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  write_report(out, spec, figure);
  out.close();
  bool ok = !out.fail();
  if (!ok) std::cerr << "dopebench: cannot write " << path << "\n";
  for (const auto& [claim, holds] : figure.verdicts) {
    if (!holds) {
      std::cerr << "dopebench: " << name << ": failed: " << claim << "\n";
    }
    ok = ok && holds;
  }
  return ok;
}

}  // namespace

bool add_figure(const char* name, const char* id, const char* title,
                void (*run)(Figure&)) {
  return registry().emplace(name, FigureSpec{id, title, run}).second;
}

int run_dopebench(int argc, const char* const* argv) {
  std::size_t threads = 0;
  std::string json_dir = ".";
  std::map<std::string, FigureSpec> selected;
  try {
    cli::ArgCursor args(argc, argv);
    while (args.next()) {
      const std::string& flag = args.flag();
      if (flag == "--help" || flag == "-h") {
        std::cout << kHelp;
        return 0;
      } else if (flag == "--threads") {
        threads = args.count();
      } else if (flag == "--json-dir") {
        json_dir = args.value();
        if (!std::filesystem::is_directory(json_dir)) {
          throw std::invalid_argument("not a directory: " + json_dir);
        }
      } else if (flag == "--list") {
        for (const auto& [name, spec] : registry()) {
          std::cout << name << "  " << spec.id << ": " << spec.title << "\n";
        }
        return 0;
      } else if (flag.starts_with('-')) {
        args.unknown();
      } else if (registry().count(flag) == 0) {
        throw std::invalid_argument("unknown figure: " + flag);
      } else {
        selected.insert(*registry().find(flag));
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "dopebench: " << e.what() << " (see --help)\n";
    return 2;
  }
  if (selected.empty()) selected = registry();

  bool ok = true;
  for (const auto& [name, spec] : selected) {
    ok = run_figure(name, spec, threads, json_dir) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace dope::bench
