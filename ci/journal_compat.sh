#!/usr/bin/env bash
# Journal format compatibility, against the release binary.
#
# 1. `fmtm journal upgrade` a committed JSON-lines journal (written by
#    the engine before the binary format), `fmtm journal dump` the
#    result, and diff it against the original lines: the conversion
#    loses and reorders nothing.
# 2. `fmtm journal dump` the committed binary journal of the replay
#    mix (`crates/wfms-engine/tests/fixtures/replay_mix.journal`) and
#    diff it byte for byte against the dump an earlier binary wrote of
#    it: the decoder reads every frame as it always did.
# 3. Start `fmtm serve` on a data directory holding a JSON journal: it
#    must refuse to start and name the upgrade command — never read
#    the old format in place, never truncate it as a "torn tail".
# 4. Run the benchmark's smoke mode and its tests: `crates/wfbench`
#    is not changed by format work, so this proves it still builds
#    and verifies against the engine's unchanged API.
#
# Artifacts land in $ART for CI upload. Exits non-zero on any mismatch.
set -euo pipefail

cd "$(dirname "$0")/.."

FMTM=target/release/fmtm
ART="${COMPAT_ART:-drill-artifacts}"
FIXTURE=crates/exotica/tests/fixtures/journal_json/flex_t8_aborts.jsonl
WORK="$(mktemp -d)"

mkdir -p "$ART"
trap 'rm -rf "$WORK"' EXIT

if [ ! -x "$FMTM" ]; then
  cargo build --release -p exotica --bin fmtm
fi

echo "== phase 1: upgrade + dump round trip =="
cp "$FIXTURE" "$WORK/old.journal"
"$FMTM" journal upgrade "$WORK/old.journal" | tee "$ART/journal-upgrade.txt"
"$FMTM" journal dump "$WORK/old.journal" >"$ART/journal-dump.jsonl"
if ! diff -u "$FIXTURE" "$ART/journal-dump.jsonl" >"$ART/journal-dump.diff"; then
  echo "compat: dump of the upgraded journal differs from the original lines" >&2
  cat "$ART/journal-dump.diff" >&2
  exit 1
fi
if [ "$(head -c 4 "$WORK/old.journal")" != "WFJL" ]; then
  echo "compat: upgraded file does not open with the journal magic" >&2
  exit 1
fi
echo "compat: $(wc -l <"$FIXTURE") events survive upgrade + dump unchanged"

echo "== phase 2: the binary golden dumps as it did =="
MIX=crates/wfms-engine/tests/fixtures/replay_mix
"$FMTM" journal dump "$MIX.journal" >"$ART/replay-mix-dump.jsonl"
if ! cmp -s "$MIX.dump.jsonl" "$ART/replay-mix-dump.jsonl"; then
  echo "compat: dump of $MIX.journal differs from its golden" >&2
  diff "$MIX.dump.jsonl" "$ART/replay-mix-dump.jsonl" | head -c 4000 >&2 || true
  exit 1
fi
echo "compat: $(wc -l <"$MIX.dump.jsonl") events dump byte for byte as the golden"

echo "== phase 3: serve refuses a JSON journal =="
mkdir "$WORK/data"
cp "$FIXTURE" "$WORK/data/shard-0.journal"
if "$FMTM" serve examples/specs/figure3.flex --port 0 --data "$WORK/data" \
  >"$ART/serve-json-refusal.log" 2>&1; then
  echo "compat: serve started on a JSON journal" >&2
  exit 1
fi
if ! grep -q "fmtm journal upgrade $WORK/data/shard-0.journal" "$ART/serve-json-refusal.log"; then
  echo "compat: refusal does not name the upgrade command:" >&2
  cat "$ART/serve-json-refusal.log" >&2
  exit 1
fi
if ! cmp -s "$FIXTURE" "$WORK/data/shard-0.journal"; then
  echo "compat: the refused journal was modified" >&2
  exit 1
fi
echo "compat: refused, naming the upgrade command; file untouched"

echo "== phase 4: the benchmark builds and verifies =="
cargo run --release -q -p wfbench -- run --quick | tee "$ART/wfbench-quick.txt"
cargo test -q -p wfbench

echo "compat: OK"
