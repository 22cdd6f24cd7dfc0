#!/usr/bin/env python3
"""dope_lint — simulator-specific determinism and hygiene linter.

Tier 2 of the correctness stack (see docs/ANALYSIS.md): fast regex /
AST-lite checks for hazards clang-tidy cannot express because they are
properties of *this* simulator's contract, not of C++:

  wall-clock      Wall-clock time sources (system_clock, time(), rand())
                  outside the simulation clock. All simulator time must
                  come from sim::Engine::now() or results stop being
                  reproducible.
  banned-rng      Standard-library RNG engines / random_device / static
                  or thread_local Rng instances. Every stochastic
                  component must take an explicit per-run dope::Rng.
  unordered-iter  Range-for iteration over a std::unordered_map/set.
                  Hash order is implementation- and run-dependent, so
                  any export, report, serialization, log, or trace fed
                  from such a loop is nondeterministic. Iterate a sorted
                  materialization instead, or suppress with a reason
                  when the loop body is provably order-independent
                  (pure commutative aggregation).
  float-eq        == / != on floating-point power/energy expressions
                  (watts, joules, SoC, budgets) or float literals.
                  Compare with a tolerance, or restate as <=/>= against
                  zero. Not applied under tests/, where exact equality
                  is how byte-identical determinism is asserted, nor to
                  sizeof(...) comparisons, which are integral.
  raw-physical-double
                  A `double` declaration in a header whose name carries
                  an explicit unit suffix (_w, _watts, _j, _joules, _wh,
                  _ghz). A unit in the name is a dimension the type
                  system can carry instead: use dope::Watts / Joules /
                  WattHours / GHz from common/units.hpp so mixed-unit
                  arithmetic is rejected at compile time (docs/ANALYSIS.md
                  Tier 0). Raw doubles are fine at serialization
                  boundaries — unwrap with .value() in the .cpp, or
                  suppress with a reason where a header must interop
                  with an external schema.
  include-hygiene #pragma once in headers, each .cpp includes its own
                  header first, quoted include blocks sorted (mirrors
                  clang-format's SortIncludes), no parent-relative
                  ("../") include paths.
  hot-path-std-function
                  std::function (or an #include <functional>) in the
                  per-event hot path (src/sim, src/server, src/workload,
                  src/net). std::function heap-allocates for captures
                  beyond its small buffer and indirects every call; the
                  event core contract (docs/ENGINE.md) is zero
                  steady-state allocation, so hot-path callbacks must
                  use common::InlineFunction / common::FunctionRef.
                  Suppress only for cold-path configuration plumbing.
  stage-plane     A control stage (src/schemes, src/antidope) reaching
                  past the plane interfaces: `cluster.X` / `cluster_->X`
                  where X is not one of the plane accessors (data,
                  power) or the composition-root facts stages may read
                  (engine, catalog, config, ladder, zone). A stage is
                  its cluster's one guest (docs/MODEL.md): touching
                  Cluster internals directly couples it to the
                  god-object the plane split dismantled, and reaching
                  `stage()` reaches the stage slot itself. Go through
                  cluster.data()/.power(), or suppress with a reason
                  where a stage legitimately needs a wider view.

Suppressions:
  // dope-lint: allow(rule[, rule...]) — reason      (this or next line)
  // dope-lint: allow-file(rule[, rule...]) — reason (whole file)

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

CXX_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
DEFAULT_DIRS = ("src", "bench", "examples", "tests")

RULES = {
    "wall-clock": "wall-clock time source outside the sim clock",
    "banned-rng": "non-deterministic or thread-shared RNG",
    "unordered-iter": "iteration over unordered container",
    "float-eq": "exact floating-point comparison on power/energy",
    "raw-physical-double": "raw double with a unit-suffixed name in a header",
    "include-hygiene": "include hygiene violation",
    "hot-path-std-function": "std::function in the per-event hot path",
    "stage-plane": "control stage bypassing the Cluster plane interfaces",
}

# Directories whose code runs once per simulated event/request; callbacks
# there must be inline-stored (common::InlineFunction / FunctionRef).
HOT_PATH_DIRS = ("src/sim", "src/server", "src/workload", "src/net")

# Directories that hold control stages (ControlStage implementations and
# the Anti-DOPE pipeline). Code here runs as a cluster's control stage
# and must see the cluster only through its plane interfaces.
STAGE_PLANE_DIRS = ("src/schemes", "src/antidope")

# The members a control stage may call on a Cluster: the two plane
# accessors, the composition-root facts (engine/catalog/config), the
# cross-plane conveniences Cluster re-exports for stages (ladder), and
# the zone identity.
STAGE_PLANE_ALLOWED = frozenset({
    "data", "power", "engine", "catalog", "config", "ladder", "zone",
})

SUPPRESS_RE = re.compile(r"dope-lint:\s*allow\(([^)]*)\)")
SUPPRESS_FILE_RE = re.compile(r"dope-lint:\s*allow-file\(([^)]*)\)")

WALL_CLOCK_RE = re.compile(
    r"""(?x)
    \bstd::chrono::(system_clock|steady_clock|high_resolution_clock)\b
    | (?<!\w)(system_clock|steady_clock|high_resolution_clock)::now\b
    | \bgettimeofday\b | \bclock_gettime\b
    | \b(localtime|gmtime|mktime|ctime|asctime)\s*\(
    | (?<![\w:.])time\s*\(\s*(NULL|nullptr|0|&)
    """
)

BANNED_RNG_RE = re.compile(
    r"""(?x)
    \bstd::(rand|srand)\b
    | (?<![\w:.])(rand|srand)\s*\(
    | \b(std::)?random_device\b
    | \bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux\w+)\b
    | \b(static|thread_local)\s+(dope::)?Rng\b
    """
)

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*?>\s+(\w+)\s*[;={(]"
)

FLOAT_KEYWORD = (
    r"(?:power|watts|joules|energy|soc|budget|demand|overshoot|"
    r"deficit|headroom|allowance|capacity|stored|heat|freq|ghz|[a-z0-9]+_w)"
)
FLOAT_LITERAL = r"(?:\d+\.\d*(?:e[-+]?\d+)?[fF]?|\.\d+)"
_OPERAND = r"[\w.\->:\[\]()]+"
FLOAT_EQ_RE = re.compile(
    r"(?ix)(?P<lhs>%s)\s*(?:==|!=)\s*(?P<rhs>%s)" % (_OPERAND, _OPERAND)
)
FLOAT_SIDE_RE = re.compile(
    r"(?ix)^(?:%s)$|\b%s\b" % (FLOAT_LITERAL, FLOAT_KEYWORD)
)

# A double whose declared name spells out a unit. `double power_w` in a
# header is a Quantity (dope::Watts) the author wrote by hand.
RAW_PHYS_DOUBLE_RE = re.compile(
    r"""(?x)
    \bdouble\s+(?P<name>
        \w+_(?:w|watts|j|joules|wh|watt_hours|ghz)
      | watts | joules | ghz | watt_hours
    )\b
    """
)

STD_FUNCTION_RE = re.compile(
    r"\bstd\s*::\s*function\b|^\s*#\s*include\s*<functional>"
)

# A member access through a variable named `cluster` / `cluster_` (or a
# `cluster()` accessor). `(?<![\w:])` keeps `cluster::Cluster` (namespace
# qualification) and `my_cluster_config` out of scope.
STAGE_PLANE_RE = re.compile(
    r"(?<![\w:])cluster_?(?:\(\))?\s*(?:->|\.)\s*(\w+)"
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"' + r"|'(?:\\.|[^'\\])*'")
LINE_COMMENT_RE = re.compile(r"//.*$")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def parse_rules(spec: str) -> set[str]:
    return {r.strip() for r in spec.split(",") if r.strip()}


def strip_code(lines: list[str]) -> list[str]:
    """Returns lines with string literals and comments blanked out, so
    rule regexes only see code. Handles // and /* */ (incl. multiline)."""
    out = []
    in_block = False
    for raw in lines:
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2 :]
            in_block = False
        line = STRING_RE.sub('""', line)
        line = LINE_COMMENT_RE.sub("", line)
        # Remove any /* ... */ runs that open (and maybe close) here.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2 :]
        out.append(line)
    return out


class FileCheck:
    """One file's raw lines, stripped lines, and suppression state."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.raw = text.splitlines()
        self.code = strip_code(self.raw)
        self.file_allows: set[str] = set()
        self.line_allows: dict[int, set[str]] = {}
        for i, line in enumerate(self.raw, start=1):
            m = SUPPRESS_FILE_RE.search(line)
            if m:
                self.file_allows |= parse_rules(m.group(1))
            m = SUPPRESS_RE.search(line)
            if m:
                allowed = parse_rules(m.group(1))
                # A trailing comment covers its own line; a standalone
                # comment line covers the next code line (skipping the
                # rest of the comment it belongs to).
                self.line_allows.setdefault(i, set()).update(allowed)
                j = i  # 0-based index of the suppression line in code[]
                while (j < len(self.code) and
                       not self.code[j].strip()):
                    j += 1
                self.line_allows.setdefault(j + 1, set()).update(allowed)

    def allowed(self, rule: str, line: int) -> bool:
        if rule in self.file_allows:
            return True
        return rule in self.line_allows.get(line, set())


def collect_unordered_names(files: list[FileCheck]) -> set[str]:
    """Cross-file pass: every identifier declared anywhere in the tree as
    a std::unordered_{map,set,...} variable or member."""
    names: set[str] = set()
    for f in files:
        for line in f.code:
            for m in UNORDERED_DECL_RE.finditer(line):
                names.add(m.group(1))
    return names


def check_pattern_rule(f: FileCheck, rule: str, pattern: re.Pattern,
                       message: str, findings: list[Finding]) -> None:
    for i, line in enumerate(f.code, start=1):
        if pattern.search(line) and not f.allowed(rule, i):
            findings.append(Finding(f.path, i, rule, message))


def check_unordered_iter(f: FileCheck, unordered_names: set[str],
                         findings: list[Finding]) -> None:
    if not unordered_names:
        return
    # Range-for over a bare name, member (obj.name / obj->name), or a
    # *this-qualified member of a known unordered container.
    tail = r"(?:\w+(?:\.|->))*(%s)\s*\)" % "|".join(
        re.escape(n) for n in sorted(unordered_names)
    )
    loop_re = re.compile(r"for\s*\(.*:\s*" + tail)
    for i, line in enumerate(f.code, start=1):
        m = loop_re.search(line)
        if m and not f.allowed("unordered-iter", i):
            findings.append(Finding(
                f.path, i, "unordered-iter",
                f"range-for over unordered container '{m.group(1)}' — "
                "hash order is nondeterministic; iterate a sorted "
                "materialization (or suppress with a reason if the body "
                "is a pure commutative aggregation)"))


def check_float_eq(f: FileCheck, findings: list[Finding]) -> None:
    if f.path.split(os.sep)[0] == "tests" or f.path.endswith("_test.cpp"):
        return  # exact comparison is how tests assert determinism
    for i, line in enumerate(f.code, start=1):
        for m in FLOAT_EQ_RE.finditer(line):
            lhs, rhs = m.group("lhs"), m.group("rhs")
            if lhs.startswith("sizeof(") or rhs.startswith("sizeof("):
                continue  # sizeof is integral, not a float comparison
            if FLOAT_SIDE_RE.search(lhs) or FLOAT_SIDE_RE.search(rhs):
                if not f.allowed("float-eq", i):
                    findings.append(Finding(
                        f.path, i, "float-eq",
                        f"exact floating-point comparison '{m.group(0)}' "
                        "on a power/energy value — use a tolerance or "
                        "an inequality"))
                break  # one finding per line is enough


def check_raw_physical_double(f: FileCheck,
                              findings: list[Finding]) -> None:
    if not f.path.endswith((".hpp", ".h")):
        return  # .cpp internals may unwrap to double freely
    for i, line in enumerate(f.code, start=1):
        m = RAW_PHYS_DOUBLE_RE.search(line)
        if m and not f.allowed("raw-physical-double", i):
            findings.append(Finding(
                f.path, i, "raw-physical-double",
                f"raw double '{m.group('name')}' carries a unit in its "
                "name — use dope::Watts / Joules / WattHours / GHz "
                "(common/units.hpp) so the dimension is checked at "
                "compile time (see docs/ANALYSIS.md, Tier 0)"))


def check_hot_path_std_function(f: FileCheck,
                                findings: list[Finding]) -> None:
    norm = f.path.replace(os.sep, "/")
    if not any(norm.startswith(d + "/") for d in HOT_PATH_DIRS):
        return
    check_pattern_rule(
        f, "hot-path-std-function", STD_FUNCTION_RE,
        "std::function in the per-event hot path — it heap-allocates for "
        "captures beyond its small buffer; use common::InlineFunction "
        "(owning) or common::FunctionRef (borrowing) instead "
        "(see docs/ENGINE.md)", findings)


def check_stage_plane(f: FileCheck, findings: list[Finding]) -> None:
    norm = f.path.replace(os.sep, "/")
    if not any(norm.startswith(d + "/") for d in STAGE_PLANE_DIRS):
        return
    for i, line in enumerate(f.code, start=1):
        for m in STAGE_PLANE_RE.finditer(line):
            member = m.group(1)
            if member in STAGE_PLANE_ALLOWED:
                continue
            if not f.allowed("stage-plane", i):
                findings.append(Finding(
                    f.path, i, "stage-plane",
                    f"control stage touches Cluster member '{member}' "
                    "directly — stages must reach state through the "
                    "plane interfaces (data()/power(); see "
                    "docs/MODEL.md) or suppress with a reason"))
            break  # one finding per line is enough


def check_include_hygiene(f: FileCheck, findings: list[Finding]) -> None:
    def report(line: int, msg: str) -> None:
        if not f.allowed("include-hygiene", line):
            findings.append(Finding(f.path, line, "include-hygiene", msg))

    is_header = f.path.endswith((".hpp", ".h"))
    if is_header and not any(
            re.match(r"\s*#\s*pragma\s+once", l) for l in f.raw):
        report(1, "header is missing #pragma once")

    quoted: list[tuple[int, str]] = []
    for i, line in enumerate(f.raw, start=1):
        m = INCLUDE_RE.match(line)
        if m:
            quoted.append((i, m.group(1)))
            if ".." in m.group(1).split("/"):
                report(i, f'parent-relative include "{m.group(1)}"')

    if f.path.endswith(".cpp") and quoted:
        stem = os.path.splitext(os.path.basename(f.path))[0]
        own = {f"{stem}.hpp", f"{stem}.h"}
        has_own = any(os.path.basename(inc) in own for _, inc in quoted)
        first = os.path.basename(quoted[0][1])
        if has_own and first not in own:
            report(quoted[0][0],
                   f"a .cpp file must include its own header first "
                   f'(expected "{stem}.hpp", found "{quoted[0][1]}")')

    # Sorted order within each contiguous quoted-include block (mirrors
    # clang-format SortIncludes with IncludeBlocks: Preserve).
    block: list[tuple[int, str]] = []
    skip_first = (f.path.endswith(".cpp") and quoted and
                  os.path.basename(quoted[0][1]).startswith(
                      os.path.splitext(os.path.basename(f.path))[0] + "."))

    def flush(block: list[tuple[int, str]]) -> None:
        names = [inc for _, inc in block]
        if names != sorted(names):
            report(block[0][0],
                   "quoted include block is not sorted: " + ", ".join(names))

    last_line = None
    for i, inc in quoted[1 if skip_first else 0:]:
        if last_line is not None and i != last_line + 1:
            if len(block) > 1:
                flush(block)
            block = []
        block.append((i, inc))
        last_line = i
    if len(block) > 1:
        flush(block)


def lint_tree(root: str, paths: list[str]) -> list[Finding]:
    files: list[FileCheck] = []
    for base in paths:
        base_abs = os.path.join(root, base)
        if os.path.isfile(base_abs):
            candidates = [base_abs]
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(base_abs):
                dirnames[:] = [d for d in dirnames
                               if d not in ("build", ".git")]
                for name in sorted(filenames):
                    candidates.append(os.path.join(dirpath, name))
        for path in sorted(candidates):
            if not path.endswith(CXX_SUFFIXES):
                continue
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as fh:
                files.append(FileCheck(rel, fh.read()))

    unordered_names = collect_unordered_names(files)
    findings: list[Finding] = []
    for f in files:
        check_pattern_rule(
            f, "wall-clock", WALL_CLOCK_RE,
            "wall-clock time source — simulator code must derive all time "
            "from sim::Engine::now() (suppress only for telemetry that "
            "never reaches a report)", findings)
        check_pattern_rule(
            f, "banned-rng", BANNED_RNG_RE,
            "nondeterministic or thread-shared RNG — use an explicit "
            "per-run dope::Rng seeded from the scenario", findings)
        check_unordered_iter(f, unordered_names, findings)
        check_float_eq(f, findings)
        check_raw_physical_double(f, findings)
        check_hot_path_std_function(f, findings)
        check_stage_plane(f, findings)
        check_include_hygiene(f, findings)
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="dope_lint",
        description="simulator-specific determinism/hygiene linter")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("paths", nargs="*", default=[],
                        help=f"files/dirs relative to --root "
                             f"(default: {' '.join(DEFAULT_DIRS)})")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:16} {desc}")
        return 0

    root = os.path.abspath(args.root)
    paths = args.paths or [d for d in DEFAULT_DIRS
                           if os.path.isdir(os.path.join(root, d))]
    for p in paths:
        if not os.path.exists(os.path.join(root, p)):
            print(f"dope_lint: no such path: {p}", file=sys.stderr)
            return 2

    findings = lint_tree(root, paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"dope_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
