#!/usr/bin/env bash
# Golden-diff the machine-readable linter output: every analyzer
# fixture has a whole-output golden in ci/golden/<stem>.json, and
# `fmtm lint --format json` on the fixture must print it byte for byte.
# Catches accidental changes to diagnostic codes, positions, order or
# message wording — the JSON schema is an interface consumed by editor
# integrations. A fixture without a golden, or a golden without a
# fixture, fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

FMTM=${FMTM:-"cargo run -q --release -p exotica --bin fmtm --"}
FIXTURES=crates/exotica/tests/fixtures/analyzer
fail=0

for golden in ci/golden/*.json; do
  stem=$(basename "$golden" .json)
  if ! ls "$FIXTURES/$stem".* >/dev/null 2>&1; then
    echo "::error::no fixture matches golden $golden"
    fail=1
  fi
done

for fixture in "$FIXTURES"/*; do
  name=$(basename "$fixture")
  golden="ci/golden/${name%.*}.json"
  if [ ! -f "$golden" ]; then
    echo "::error::fixture $fixture has no golden $golden"
    fail=1
    continue
  fi
  # lint exits 1 on findings by design; the diff is the verdict here.
  actual=$($FMTM lint "$fixture" --format json || true)
  if ! diff <(echo "$actual") "$golden" >/dev/null; then
    echo "::error::lint JSON drifted for $fixture"
    diff <(echo "$actual") "$golden" || true
    fail=1
  else
    echo "ok: $fixture matches $golden"
  fi
done

exit $fail
