#!/usr/bin/env bash
# Advisory drift check between the committed EXPERIMENTS.md tables and
# a freshly regenerated `bench --bin report` run.
#
# Absolute numbers are hardware-dependent, so every digit run is
# normalised to `N` before comparison; what is compared is the table
# *structure* (section headers, row labels, column counts). Lines in
# EXPERIMENTS.md fenced blocks that no longer appear in the fresh
# report are reported as GitHub workflow warnings. Always exits 0 —
# drift is a prompt to regenerate the tables, not a build failure.
set -euo pipefail

cd "$(dirname "$0")/.."

REPORT_OUT="${1:?usage: report_drift.sh <fresh-report-output-file>}"

normalize() {
  # Parenthetical annotations (units, core counts) are hand-added to
  # committed tables and stripped on both sides; digits -> N; runs of
  # whitespace collapse; edges trim.
  sed -E -e 's/\([^)]*\)//g' -e 's/[0-9]+(\.[0-9]+)?/N/g' \
    -e 's/[[:space:]]+/ /g' -e 's/^ //' -e 's/ $//' "$1"
}

# Unlabelled fenced blocks in EXPERIMENTS.md hold report tables;
# labelled ones are skipped: ```sh for shell snippets, ```text for
# tables another producer (wfbench, a kept snapshot) wrote.
extract_tables() {
  awk '
    /^```/ {
      if (in_any) { in_any = 0; is_table = 0 }
      else { in_any = 1; is_table = ($0 == "```") }
      next
    }
    in_any && is_table { print }
  ' EXPERIMENTS.md
}

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

extract_tables >"$TMP/committed.raw"
# `|| true`: an empty side (no tables yet) is "no drift", not a crash.
normalize "$TMP/committed.raw" | grep -v '^$' | sort -u >"$TMP/committed.norm" || true
normalize "$REPORT_OUT" | grep -v '^$' | sort -u >"$TMP/fresh.norm" || true

MISSING="$TMP/missing.txt"
comm -23 "$TMP/committed.norm" "$TMP/fresh.norm" >"$MISSING"

TOTAL=$(wc -l <"$TMP/committed.norm")
DRIFTED=$(wc -l <"$MISSING")

if [ "$DRIFTED" -eq 0 ]; then
  echo "report drift: none ($TOTAL normalised table lines all present in fresh report)"
else
  echo "::warning title=EXPERIMENTS.md drift::$DRIFTED of $TOTAL committed table lines not found in regenerated report (structure changed — consider refreshing EXPERIMENTS.md)"
  echo "-- drifted lines (committed, normalised) --"
  head -20 "$MISSING"
  if [ "$DRIFTED" -gt 20 ]; then
    echo "… and $((DRIFTED - 20)) more"
  fi
fi

exit 0
