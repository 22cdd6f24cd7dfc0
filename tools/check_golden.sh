#!/usr/bin/env bash
# check_golden — byte-compare dopesim_cli exports against tests/golden/.
#
# Runs the CI golden scenario (Anti-DOPE, Low budget, 400 rps flood,
# 2-minute battery, seed 42 — the same configuration as
# tests/determinism_test.cpp) and cmp's every export surface against the
# pre-refactor captures in tests/golden/. The span-merged JSONL trace,
# the Chrome trace, the forensics rollup and the incident bundle are
# too large to commit, so their sha256 sums sit in
# tests/golden/exports.sha256 instead, as are the exports of a
# fleet-sized firewall run (4 zones x 50 servers behind the GLB, 16
# bans), the one surface where least-loaded picks over 50-node pools,
# the firewall's ban order and the forensics' dominant zone show, and
# two runs without Anti-DOPE (no scheme; Shaving). Any refactor that claims
# "performance/typing changes, results do not" (the event-core rewrite,
# the Quantity<Dim> units migration) must keep this green: a single
# changed byte means the arithmetic — not just the types — changed.
#
# Usage: tools/check_golden.sh [path/to/dopesim_cli]
#        (default: build/examples/dopesim_cli relative to the repo root)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cli=${1:-"$root/build/examples/dopesim_cli"}
golden="$root/tests/golden"

if [[ ! -x "$cli" ]]; then
  echo "check_golden: no such executable: $cli" >&2
  echo "  build it with: cmake --build build --target dopesim_cli" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$cli" --scheme antidope --budget low --attack-rps 400 --duration-s 60 \
  --seed 42 --battery-min 2 \
  --csv "$tmp/out.csv" --power-csv "$tmp/out-power.csv" \
  --soc-csv "$tmp/out-soc.csv" --metrics-out "$tmp/out-metrics.json" \
  --trace-out "$tmp/out-trace.jsonl"

gunzip -c "$golden/engine_refactor_trace.jsonl.gz" > "$tmp/golden-trace.jsonl"

status=0
compare() {
  if ! cmp "$1" "$2"; then
    echo "check_golden: MISMATCH: $(basename "$2")" >&2
    status=1
  fi
}
compare "$tmp/out.csv" "$golden/engine_refactor.csv"
compare "$tmp/out-power.csv" "$golden/engine_refactor_power.csv"
compare "$tmp/out-soc.csv" "$golden/engine_refactor_soc.csv"
compare "$tmp/out-metrics.json" "$golden/engine_refactor_metrics.json"
compare "$tmp/out-trace.jsonl" "$tmp/golden-trace.jsonl"

# Zero-cost-when-attached: the same scenario with the flight recorder
# and time-series store running (--incidents-out implies both) must
# still produce byte-identical bytes on every golden surface — the
# recorder observes, it never perturbs.
"$cli" --scheme antidope --budget low --attack-rps 400 --duration-s 60 \
  --seed 42 --battery-min 2 \
  --csv "$tmp/att.csv" --power-csv "$tmp/att-power.csv" \
  --soc-csv "$tmp/att-soc.csv" --metrics-out "$tmp/att-metrics.json" \
  --incidents-out "$tmp/att-incidents.json"

compare "$tmp/att.csv" "$golden/engine_refactor.csv"
compare "$tmp/att-power.csv" "$golden/engine_refactor_power.csv"
compare "$tmp/att-soc.csv" "$golden/engine_refactor_soc.csv"
compare "$tmp/att-metrics.json" "$golden/engine_refactor_metrics.json"

# The span-merged exports: the same scenario with request spans, once
# as JSONL and once with the Chrome trace, forensics and incident bundle.
"$cli" --scheme antidope --budget low --attack-rps 400 --duration-s 60 \
  --seed 42 --battery-min 2 --spans --trace-out "$tmp/spans-trace.jsonl" \
  > /dev/null
"$cli" --scheme antidope --budget low --attack-rps 400 --duration-s 60 \
  --seed 42 --battery-min 2 --spans --alerts \
  --forensics-out "$tmp/forensics.json" \
  --trace-out "$tmp/chrome-trace.json" \
  --incidents-out "$tmp/incidents.json" > /dev/null

# Fleet-sized firewall run: 16 agents flood zone 1 hard enough to be
# banned, so the trace carries 16 FirewallBan events in source order.
"$cli" --zones 4 --servers 50 --divider headroom --firewall \
  --attack-zone 1 --normal-rps 8000 --attack-rps 3000 --agents 16 \
  --duration-s 30 --seed 42 --csv "$tmp/fleet-fw.csv" \
  --metrics-out "$tmp/fleet-fw-metrics.json" \
  --trace-out "$tmp/fleet-fw-trace.jsonl" > /dev/null
# The same fleet with request spans and the forensics rollup: the one
# surface where `dominant_zone` (272 sources across 4 zones) shows.
"$cli" --zones 4 --servers 50 --divider headroom --firewall \
  --attack-zone 1 --normal-rps 8000 --attack-rps 3000 --agents 16 \
  --duration-s 30 --seed 42 --spans \
  --forensics-out "$tmp/fleet-fw-forensics.json" > /dev/null
# The two runs that install no Anti-DOPE: no control stage at all, and
# the Shaving baseline (battery first, DVFS fallback) on the same flood.
"$cli" --scheme none --budget low --attack-rps 400 --duration-s 60 \
  --seed 42 --csv "$tmp/none.csv" --metrics-out "$tmp/none-metrics.json" \
  > /dev/null
"$cli" --scheme shaving --budget low --attack-rps 400 --duration-s 60 \
  --seed 42 --battery-min 2 --csv "$tmp/shaving.csv" \
  --metrics-out "$tmp/shaving-metrics.json" > /dev/null
if ! (cd "$tmp" && sha256sum --quiet -c "$golden/exports.sha256"); then
  echo "check_golden: MISMATCH: exports.sha256" >&2
  status=1
fi

if [[ "$status" -ne 0 ]]; then
  echo "check_golden: exports drifted from tests/golden/ captures" >&2
  exit 1
fi
echo "check_golden: all 17 export surfaces byte-identical" \
  "(detached and with the flight recorder attached)"
