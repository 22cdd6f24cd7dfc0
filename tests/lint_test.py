#!/usr/bin/env python3
"""Self-test for tools/dope_lint.py (tier 2 of the correctness stack).

Feeds known-bad C++ snippets through the linter and asserts each rule
fires where expected, that the suppression syntax is honoured, and — as
the integration check — that the real tree is clean.

Run directly (``python3 tests/lint_test.py``) or via ctest as the
``lint_selftest`` test.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

spec = importlib.util.spec_from_file_location(
    "dope_lint", os.path.join(REPO_ROOT, "tools", "dope_lint.py"))
dope_lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(dope_lint)


def lint_snippet(snippet: str, filename: str = "src/mod/sample.cpp"):
    """Writes one file into a temp tree and returns its findings."""
    return lint_snippets({filename: snippet})


def lint_snippets(files: dict[str, str]):
    with tempfile.TemporaryDirectory() as root:
        for rel, text in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return dope_lint.lint_tree(root, sorted({
            rel.split("/")[0] for rel in files
        }))


def rules_of(findings):
    return {f.rule for f in findings}


class WallClockRule(unittest.TestCase):
    def test_flags_chrono_clocks(self):
        for expr in (
            "auto t = std::chrono::steady_clock::now();",
            "auto t = std::chrono::system_clock::now();",
            "auto t = high_resolution_clock::now();",
            "gettimeofday(&tv, nullptr);",
            "time_t t = time(nullptr);",
        ):
            findings = lint_snippet(f"void f() {{ {expr} }}\n")
            self.assertIn("wall-clock", rules_of(findings), expr)

    def test_sim_time_is_clean(self):
        findings = lint_snippet(
            "void f(sim::Engine& e) { auto t = e.now(); }\n")
        self.assertNotIn("wall-clock", rules_of(findings))

    def test_identifier_containing_time_is_clean(self):
        findings = lint_snippet(
            "void f() { auto t = runtime(nullptr); }\n")
        self.assertNotIn("wall-clock", rules_of(findings))


class BannedRngRule(unittest.TestCase):
    def test_flags_std_engines(self):
        for expr in (
            "std::mt19937 gen(42);",
            "std::random_device rd;",
            "int x = rand();",
            "srand(42);",
            "static Rng shared;",
            "thread_local dope::Rng shared;",
        ):
            findings = lint_snippet(f"void f() {{ {expr} }}\n")
            self.assertIn("banned-rng", rules_of(findings), expr)

    def test_explicit_rng_param_is_clean(self):
        findings = lint_snippet(
            "double f(dope::Rng& rng) { return rng.uniform(); }\n")
        self.assertNotIn("banned-rng", rules_of(findings))


class UnorderedIterRule(unittest.TestCase):
    SNIPPET = (
        "#pragma once\n"
        "#include <unordered_map>\n"
        "struct S {\n"
        "  std::unordered_map<int, int> counts_;\n"
        "  void dump() {\n"
        "    for (const auto& [k, v] : counts_) emit(k, v);\n"
        "  }\n"
        "};\n"
    )

    def test_flags_range_for_over_member(self):
        findings = lint_snippet(self.SNIPPET, "src/mod/sample.hpp")
        self.assertIn("unordered-iter", rules_of(findings))

    def test_detects_decl_in_another_file(self):
        # The declaration lives in the header; the loop in the .cpp.
        findings = lint_snippets({
            "src/mod/s.hpp": ("#pragma once\n#include <unordered_map>\n"
                              "struct S { std::unordered_map<int, int> "
                              "window_; };\n"),
            "src/mod/s.cpp": ('#include "s.hpp"\n'
                              "void dump(S& s) {\n"
                              "  for (auto& kv : s.window_) emit(kv);\n"
                              "}\n"),
        })
        self.assertIn("unordered-iter",
                      {f.rule for f in findings if f.path.endswith("s.cpp")})

    def test_sorted_vector_is_clean(self):
        findings = lint_snippet(
            "void f(const std::vector<int>& sorted_keys) {\n"
            "  for (int k : sorted_keys) emit(k);\n"
            "}\n")
        self.assertNotIn("unordered-iter", rules_of(findings))


class FloatEqRule(unittest.TestCase):
    def test_flags_power_comparison(self):
        for expr in (
            "if (power == 0.0) return;",
            "if (demand_w != budget) return;",
            "bool b = soc == 1.0;",
        ):
            findings = lint_snippet(f"void f() {{ {expr} }}\n")
            self.assertIn("float-eq", rules_of(findings), expr)

    def test_integer_comparison_is_clean(self):
        findings = lint_snippet(
            "void f(int count) { if (count == 0) return; }\n")
        self.assertNotIn("float-eq", rules_of(findings))

    def test_tests_are_exempt(self):
        findings = lint_snippet(
            "void f() { if (power == 0.0) return; }\n",
            "tests/sample_test.cpp")
        self.assertNotIn("float-eq", rules_of(findings))

    def test_sizeof_comparison_is_clean(self):
        # sizeof yields an integer; static_assert layout checks on the
        # Quantity types (common/units.hpp) must not trip the rule.
        findings = lint_snippet(
            "#pragma once\n"
            "static_assert(sizeof(Watts) == sizeof(double));\n",
            "src/mod/sample.hpp")
        self.assertNotIn("float-eq", rules_of(findings))


class RawPhysicalDoubleRule(unittest.TestCase):
    def test_flags_unit_suffixed_members_and_params(self):
        for decl in (
            "double power_w = 0.0;",
            "double idle_joules;",
            "double cap_wh = 0.0;",
            "double clock_ghz = 2.4;",
            "void set(double budget_w);",
            "double drained_j() const;",
        ):
            findings = lint_snippet(
                f"#pragma once\nstruct S {{ {decl} }};\n",
                "src/mod/sample.hpp")
            self.assertIn("raw-physical-double", rules_of(findings), decl)

    def test_quantity_types_are_clean(self):
        findings = lint_snippet(
            "#pragma once\n"
            "struct S { dope::Watts power_w{0.0}; "
            "dope::Joules drained_j{0.0}; };\n",
            "src/mod/sample.hpp")
        self.assertNotIn("raw-physical-double", rules_of(findings))

    def test_dimensionless_doubles_are_clean(self):
        findings = lint_snippet(
            "#pragma once\n"
            "struct S { double headroom_margin = 0.02; double soc; };\n",
            "src/mod/sample.hpp")
        self.assertNotIn("raw-physical-double", rules_of(findings))

    def test_cpp_files_are_exempt(self):
        findings = lint_snippet(
            "void emit() { double power_w = p.value(); write(power_w); }\n",
            "src/mod/sample.cpp")
        self.assertNotIn("raw-physical-double", rules_of(findings))

    def test_suppression_is_honoured(self):
        findings = lint_snippet(
            "#pragma once\n"
            "struct Row {\n"
            "  // dope-lint: allow(raw-physical-double) — JSON schema\n"
            "  double power_w;\n"
            "};\n",
            "src/mod/sample.hpp")
        self.assertNotIn("raw-physical-double", rules_of(findings))


class IncludeHygieneRule(unittest.TestCase):
    def test_header_missing_pragma_once(self):
        findings = lint_snippet("struct S {};\n", "src/mod/sample.hpp")
        self.assertIn("include-hygiene", rules_of(findings))

    def test_cpp_must_include_own_header_first(self):
        findings = lint_snippets({
            "src/mod/sample.hpp": "#pragma once\n",
            "src/mod/other.hpp": "#pragma once\n",
            "src/mod/sample.cpp": ('#include "other.hpp"\n'
                                   '#include "sample.hpp"\n'),
        })
        self.assertIn("include-hygiene", rules_of(findings))

    def test_unsorted_include_block(self):
        findings = lint_snippet(
            '#include "zed/a.hpp"\n#include "alpha/b.hpp"\nint x;\n')
        self.assertIn("include-hygiene", rules_of(findings))

    def test_parent_relative_include(self):
        findings = lint_snippet('#include "../mod/a.hpp"\nint x;\n')
        self.assertIn("include-hygiene", rules_of(findings))

    def test_well_formed_file_is_clean(self):
        findings = lint_snippets({
            "src/mod/sample.hpp": "#pragma once\nstruct S {};\n",
            "src/mod/sample.cpp": ('#include "sample.hpp"\n\n'
                                   '#include "alpha/b.hpp"\n'
                                   '#include "zed/a.hpp"\n'),
        })
        self.assertEqual(rules_of(findings), set())


class HotPathStdFunctionRule(unittest.TestCase):
    def test_flags_std_function_in_hot_path_dirs(self):
        for rel in ("src/sim/sample.cpp", "src/server/sample.hpp",
                    "src/workload/sample.cpp", "src/net/sample.hpp"):
            snippet = "#pragma once\n" if rel.endswith(".hpp") else ""
            snippet += "void f(std::function<void()> cb) { cb(); }\n"
            findings = lint_snippet(snippet, rel)
            self.assertIn("hot-path-std-function", rules_of(findings), rel)

    def test_flags_functional_include(self):
        findings = lint_snippet(
            "#pragma once\n#include <functional>\n", "src/sim/sample.hpp")
        self.assertIn("hot-path-std-function", rules_of(findings))

    def test_cold_path_dirs_are_exempt(self):
        for rel in ("src/sweep/sample.cpp", "src/common/sample.cpp",
                    "tests/sample_test.cpp"):
            findings = lint_snippet(
                "void f(std::function<void()> cb) { cb(); }\n", rel)
            self.assertNotIn("hot-path-std-function", rules_of(findings),
                             rel)

    def test_inline_function_is_clean(self):
        findings = lint_snippet(
            "void f(common::InlineFunction<void()> cb) { cb(); }\n",
            "src/sim/sample.cpp")
        self.assertNotIn("hot-path-std-function", rules_of(findings))

    def test_suppression_is_honoured(self):
        findings = lint_snippet(
            "// dope-lint: allow(hot-path-std-function) — cold config\n"
            "void f(std::function<void()> cb) { cb(); }\n",
            "src/net/sample.cpp")
        self.assertNotIn("hot-path-std-function", rules_of(findings))


class StagePlaneRule(unittest.TestCase):
    def test_flags_internal_access_in_stage_dirs(self):
        for rel in ("src/schemes/sample.cpp", "src/antidope/sample.cpp"):
            for expr in (
                "cluster.servers(0).set_level(2);",
                "cluster_->battery()->drain(j);",
                "cluster().slot_stats();",
                "cluster_->stage()->on_slot(t, d);",
                "cluster.control().slot();",
                "cluster.install_scheme(nullptr);",
            ):
                findings = lint_snippet(
                    f"void f() {{ {expr} }}\n", rel)
                self.assertIn("stage-plane", rules_of(findings),
                              f"{rel}: {expr}")

    def test_plane_interfaces_are_clean(self):
        snippet = (
            "void f() {\n"
            "  cluster.power().set_budget(w);\n"
            "  cluster_->data().lb();\n"
            "  cluster_->power().run_slot(t);\n"
            "  auto& e = cluster.engine();\n"
            "  cluster_->ladder().level_count();\n"
            "  if (cluster.zone() >= 0) use(cluster.config());\n"
            "  (void)cluster.catalog();\n"
            "}\n")
        findings = lint_snippet(snippet, "src/schemes/sample.cpp")
        self.assertNotIn("stage-plane", rules_of(findings))

    def test_other_dirs_are_exempt(self):
        # The composition root and its satellites own the internals.
        for rel in ("src/cluster/sample.cpp", "src/scenario/sample.cpp",
                    "tests/sample_test.cpp"):
            findings = lint_snippet(
                "void f() { cluster_->servers(0).fail(); }\n", rel)
            self.assertNotIn("stage-plane", rules_of(findings), rel)

    def test_namespace_qualification_is_clean(self):
        findings = lint_snippet(
            "void f(cluster::Cluster& c) {\n"
            "  auto w = cluster::Cluster::kSignalSlotDemand;\n"
            "}\n", "src/schemes/sample.cpp")
        self.assertNotIn("stage-plane", rules_of(findings))

    def test_suppression_is_honoured(self):
        findings = lint_snippet(
            "// dope-lint: allow(stage-plane) — profiler needs raw slots\n"
            "void f() { cluster_->slot_stats(); }\n",
            "src/antidope/sample.cpp")
        self.assertNotIn("stage-plane", rules_of(findings))


class Suppressions(unittest.TestCase):
    BAD = "void f() { auto t = std::chrono::steady_clock::now(); }"

    def test_trailing_allow_covers_its_line(self):
        findings = lint_snippet(
            f"{self.BAD}  // dope-lint: allow(wall-clock) — telemetry\n")
        self.assertEqual(rules_of(findings), set())

    def test_standalone_allow_covers_next_code_line(self):
        findings = lint_snippet(
            "// dope-lint: allow(wall-clock) — host-side telemetry that\n"
            "// never reaches a report.\n"
            f"{self.BAD}\n")
        self.assertEqual(rules_of(findings), set())

    def test_allow_file_covers_whole_file(self):
        findings = lint_snippet(
            "// dope-lint: allow-file(wall-clock) — wall-clock bench\n"
            f"{self.BAD}\n"
            f"{self.BAD}\n")
        self.assertEqual(rules_of(findings), set())

    def test_allow_does_not_cover_other_rules(self):
        findings = lint_snippet(
            f"{self.BAD}  // dope-lint: allow(banned-rng) — wrong rule\n")
        self.assertIn("wall-clock", rules_of(findings))

    def test_comments_and_strings_never_match(self):
        findings = lint_snippet(
            "// std::chrono::steady_clock::now() in prose\n"
            '/* rand() discussion */\n'
            'const char* kHelp = "std::mt19937 gen(rand());";\n')
        self.assertEqual(rules_of(findings), set())


class RealTreeIsClean(unittest.TestCase):
    def test_repository_lints_clean(self):
        findings = dope_lint.lint_tree(
            REPO_ROOT,
            [d for d in dope_lint.DEFAULT_DIRS
             if os.path.isdir(os.path.join(REPO_ROOT, d))])
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    sys.exit(unittest.main())
