#!/usr/bin/env python3
"""Whole-simulator benchmark: build, run one workload, print its result.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first call builds the simulator library and the driver from source
into .bench_build/ (CMake, RelWithDebInfo); later calls reuse that build.
The last line of standard output is the result object described in
perfbench/README.md. With --trace 1 the traced run's spans are written to
.bench_build/spans/<workload>-seed<N>.jsonl.

--self-check runs every workload for a few simulated seconds, traced and
untraced, and verifies that every metric named in BENCHMARK.json is
emitted with its unit, that a wrong digest is caught, and that the span
tree is well formed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
GOLDEN_CSV = os.path.join(ROOT, "tests", "golden", "engine_refactor.csv")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the build up to date; returns the
    driver binary's path. Build output goes to a log in the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see " + log_path + ")")
    return os.path.join(BUILD, "perfbench")


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    if seed != recorded["seed"]:
        return None
    return recorded["digests"].get(workload)


def run_driver(binary, workload, seed, seconds, trace, extra=(),
               quiet=False):
    """Runs the driver once; returns (stdout lines, parsed result or
    None, exit code). `quiet` discards its standard error."""
    if not os.path.isfile(GOLDEN_CSV):
        fail(f"golden summary not found: {GOLDEN_CSV}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden-csv", GOLDEN_CSV, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          stderr=subprocess.DEVNULL if quiet else None)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            result = None
    return lines, result, proc.returncode


def spans_path(workload, seed):
    os.makedirs(SPANS, exist_ok=True)
    return os.path.join(SPANS, f"{workload}-seed{seed}.jsonl")


def measure(args):
    binary = build()
    extra = []
    if args.sim_seconds:
        extra += ["--sim-seconds", str(args.sim_seconds)]
    else:
        digest = recorded_digest(args.workload, args.seed)
        if digest:
            extra += ["--expect-digest", digest]
    if args.trace == 1:
        extra += ["--spans-out", spans_path(args.workload, args.seed)]
    lines, result, code = run_driver(binary, args.workload, args.seed,
                                     args.seconds, args.trace, extra)
    if result is None:
        sys.stderr.write("\n".join(lines) + "\n")
        fail(f"driver exited with {code} and no result")
    print("\n".join(lines), flush=True)


# ------------------------------------------------------------ self-check

def check_spans(path):
    """Every parent id resolves, every span is closed, and no child
    starts before or ends after its parent."""
    spans = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if "summary" not in row:
                spans[row["id"]] = row
    if not spans:
        return ["no spans written"]
    problems = []
    for s in spans.values():
        if s["end_ns"] < s["start_ns"]:
            problems.append(f"span {s['id']} ({s['name']}) is not closed")
        if s["parent"] == 0:
            continue
        p = spans.get(s["parent"])
        if p is None:
            problems.append(f"span {s['id']} has unknown parent "
                            f"{s['parent']}")
        elif s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            problems.append(f"span {s['id']} ({s['name']}) outlasts its "
                            f"parent {p['id']} ({p['name']})")
    return problems


def check_metrics(result, expected):
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"unexpected metric {n}" for n in got if n not in want]
    problems += [f"metric {n} has unit {got[n]}, expected {u}"
                 for n, u in want.items() if n in got and got[n] != u]
    problems += [f"metric {n} is not a number"
                 for n, m in result["metrics"].items()
                 if not isinstance(m.get("value"), (int, float))]
    return problems


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    problems = []
    short = ["--sim-seconds", "5"]
    for w in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            extra = list(short)
            if trace == 1:
                extra += ["--spans-out", spans_path(w, "check")]
            _, result, code = run_driver(binary, w, 42, 0.2, trace, extra)
            tag = f"{w} --trace {trace}"
            if result is None:
                problems.append(f"{tag}: no result (exit {code})")
                continue
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{tag}: run not correct: "
                                + json.dumps({k: result[k] for k in
                                              ("correct", "attempted",
                                               "failed")}))
            problems += [f"{tag}: {p}" for p in
                         check_metrics(result, expected)]
            if trace == 1:
                problems += [f"{tag}: {p}" for p in
                             check_spans(spans_path(w, "check"))]
        # The digest gate must catch a wrong recorded digest.
        _, result, _ = run_driver(binary, w, 42, 0.2, 0,
                                  short + ["--expect-digest", "0" * 16],
                                  quiet=True)
        if result is None or result["correct"] or result["failed"] == 0:
            problems.append(f"{w}: a wrong expected digest was not caught")
        print(f"self-check: {w} done", flush=True)
    for p in problems:
        print(f"self-check: FAIL {p}")
    print("self-check: " + ("ok" if not problems else
                            f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-seconds", type=float, default=0,
                        help="shorten every simulated window (no digest "
                             "is recorded for shortened runs)")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        sys.exit(self_check())
    if not args.workload:
        parser.error("--workload is required")
    measure(args)


if __name__ == "__main__":
    main()
