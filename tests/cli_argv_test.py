#!/usr/bin/env python3
"""cli_argv_test — malformed command lines end in a usage error, never a crash.

Runs each front-end with bad argv (a missing value, a bad number, an
unknown flag, a negative count, an out-of-range attack zone, a JSON input
nested 2,000,000 deep, ...) and requires exit status 2 — not a signal —
with stderr starting with the tool's "<tool>: " prefix.

Usage: cli_argv_test.py --dopesim PATH --dopesweep PATH
                        --dopefuzz PATH --dopereport PATH --dopebench PATH
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

# Stands for a file of 2,000,000 nested "[" written at run time: a JSON
# reader must reject it with a usage error, not overflow its stack.
DEEP_JSON = "<deep.json>"

# Rejected by every front-end: either a bad value or a flag the tool
# does not have.
COMMON = [
    ["--bogus"],
    ["--servers", "-1"],
    ["--attack-zone", "3"],
]

CASES = {
    "dopesim": COMMON + [
        ["--servers"],
        ["--servers", "8abc"],
        ["--seed", "42abc"],
        ["--duration-s", "x"],
        ["--zones", "2", "--attack-zone", "2"],
        ["--trace-cap", "-5"],
        ["--alert-hysteresis", "3"],
        ["--alert-hysteresis", "3:-1"],
        ["--scheme", "bogus"],
        ["--servers", "0", "--duration-s", "1"],
    ],
    "dopesweep": COMMON + [
        ["--threads"],
        ["--threads", "-1"],
        ["--seeds", "42abc"],
        ["--seeds", "-1"],
        ["--attacks", "dope:400abc"],
        ["--zones", "0"],
        ["--zones", "2", "--attack-zone", "-2"],
        ["--live-interval-ms", "0"],
        ["--agents", "1.5"],
    ],
    "dopefuzz": COMMON + [
        ["--cases"],
        ["--cases", "4x"],
        ["--cases", "-1"],
        ["--threads", "1.5"],
        ["--seed", "0xZZ"],
        ["--live-interval-ms", "-5"],
        ["--case-seed", "1", "--replay", "x.repro.json"],
        ["--replay", DEEP_JSON],
    ],
    "dopereport": COMMON + [
        ["-o"],
        [],
        ["a.json", "b.json"],
        ["/nonexistent/bundle.json"],
        [DEEP_JSON],
    ],
    "dopebench": COMMON + [
        ["--threads"],
        ["--threads", "-1"],
        ["--threads", "2.5"],
        ["--threads", "8abc"],
        ["--json-dir"],
        ["--json-dir", "/nonexistent/dir"],
        ["fig99"],
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for tool in CASES:
        parser.add_argument(f"--{tool}", required=True, metavar="PATH")
    paths = vars(parser.parse_args())

    tmp = tempfile.TemporaryDirectory()
    deep_path = os.path.join(tmp.name, "deep.json")
    with open(deep_path, "w", encoding="ascii") as out:
        out.write("[" * 2_000_000)

    failures = 0
    for tool, cases in CASES.items():
        for case in cases:
            argv = [deep_path if arg == DEEP_JSON else arg for arg in case]
            proc = subprocess.run([paths[tool], *argv], capture_output=True,
                                  text=True, timeout=60)
            problem = None
            if proc.returncode < 0:
                problem = f"killed by signal {-proc.returncode}"
            elif proc.returncode != 2:
                problem = f"exit status {proc.returncode}, want 2"
            elif not proc.stderr.startswith(f"{tool}: "):
                problem = f"stderr lacks the '{tool}: ' prefix"
            if problem:
                failures += 1
                print(f"FAIL {tool} {' '.join(argv)}: {problem}\n"
                      f"  stderr: {proc.stderr.strip()[:300]}")
    tmp.cleanup()
    total = sum(len(cases) for cases in CASES.values())
    print(f"cli_argv_test: {total - failures}/{total} command lines "
          f"rejected cleanly")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
