#!/usr/bin/env bash
# Advisory performance drift check between the committed BENCH_nav.json
# and a freshly measured `navbench --quick` run on the CI host.
#
# Absolute µs numbers are hardware-dependent and are not compared;
# what is compared is the *ratios* the benchmark exists to defend:
#
#   * nav_compiled.speedup — the compiled navigator must beat the
#     reference interpreter (< 1.0 is the regression this repo once
#     shipped: a hot path quietly re-serializing every event);
#   * submit_path.wire_overhead — warn when the HTTP wire path costs
#     more than twice its committed multiple of the pool path.
#
# Ratios are only comparable between like machines: the wire path runs
# a reactor, a shard worker and a client thread, so a 1-core runner
# cannot reproduce a 4-core submit_path.wire_overhead. Both JSON
# files carry the core count they were measured on, and runs on a
# different core count than the committed baseline are skipped with a
# warning instead of producing noise.
#
# Always exits 0: CI hosts are noisy shared machines, so drift is a
# prompt to look, not a build failure.
set -euo pipefail

cd "$(dirname "$0")/.."

FRESH="${1:?usage: perf_drift.sh <fresh-json-path> (created if absent)}"

if [ ! -f "$FRESH" ]; then
  cargo run --release -p bench --bin navbench -- --quick --out "$FRESH" || exit 0
fi

if [ ! -f BENCH_nav.json ]; then
  echo "::warning title=perf drift::no committed BENCH_nav.json to compare against"
  exit 0
fi

python3 - "$FRESH" <<'PY' || echo "::warning title=perf drift::comparison failed (malformed JSON?)"
import json, sys

fresh = json.load(open(sys.argv[1]))
committed = json.load(open("BENCH_nav.json"))

fresh_cores = fresh.get("cores")
committed_cores = committed.get("cores")
if fresh_cores != committed_cores:
    print(
        "::warning title=perf drift::core counts differ (committed "
        f"{committed_cores}, this host {fresh_cores}); ratios are not "
        "comparable across core counts — skipping"
    )
    sys.exit(0)

def get(d, *path):
    for p in path:
        d = d.get(p, {})
    return d if isinstance(d, (int, float)) else None

warnings = []

nav = get(fresh, "nav_compiled", "speedup")
nav_committed = get(committed, "nav_compiled", "speedup")
if nav is not None and nav < 1.0:
    warnings.append(
        f"nav_compiled.speedup = {nav} (< 1.0): the compiled navigator is "
        f"slower than the reference interpreter (committed: {nav_committed})"
    )

wire = get(fresh, "submit_path", "wire_overhead")
wire_committed = get(committed, "submit_path", "wire_overhead")
if wire is not None and wire_committed and wire > wire_committed * 2.0:
    warnings.append(
        f"submit_path.wire_overhead = {wire}, more than twice the "
        f"committed {wire_committed}"
    )

print(f"{'ratio':<32}{'committed':>12}{'fresh':>12}")
for label, c, f in [
    ("nav_compiled.speedup", nav_committed, nav),
    ("submit_path.wire_overhead", wire_committed, wire),
]:
    print(f"{label:<32}{c if c is not None else '-':>12}{f if f is not None else '-':>12}")

if warnings:
    for w in warnings:
        print(f"::warning title=navbench perf drift::{w}")
else:
    print("perf drift: none (all ratios within tolerance)")
PY

exit 0
