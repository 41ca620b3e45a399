#!/usr/bin/env bash
# Serve smoke + crash-restart drill.
#
# 1. Start `fmtm serve` (2 shards), drive ~200 submissions through
#    `fmtm load`, record every accepted instance id.
# 2. kill -9 the server mid-flight, restart it on the same data
#    directory, and assert every previously-accepted instance is
#    recovered and reaches `finished` — the ACK-implies-durable
#    guarantee of the group-commit path — and that the restart's
#    replay elided events of finished instances.
# 3. Before the kill, hold the server at a fixed open-loop arrival
#    rate (latency clocked from each request's scheduled send, the
#    schedule never resets) and assert zero transport errors — the
#    event-loop front end must absorb a steady offered rate without
#    dropping connections.
# 4. Redeploy drill: start with a v1 spec, submit, deploy an edited
#    v2 over HTTP (drain-old), kill -9, restart with the *original*
#    v1 spec file — every v1 instance must verify finished and keep
#    its pinned v1 version hash, while fresh submissions run v2. After
#    the deploy, and again after a drain, a thread census: the serving
#    process is its main thread, its reactors and its shard workers —
#    a shard's worker is the one writer of its engine, and no helper
#    thread serves (or outlives) a deploy or a drain.
#
# Admission control — explicit `overloaded` answers, the exact `--queue`
# bound in a 429's `(depth/capacity)` and in the depth gauge — is not a
# phase here: the seeded simulator over the shard's step function
# (`crates/wfms-server/src/shard/sim.rs`) checks it after every step,
# and `tenant_quota_answers_429_with_retry_after` over loopback HTTP.
#
# Artifacts (server logs, load reports, id list) land in $ART for CI
# upload. Exits non-zero on any lost instance or drill failure.
set -euo pipefail

cd "$(dirname "$0")/.."

FMTM=target/release/fmtm
PORT="${DRILL_PORT:-7413}"
URL="127.0.0.1:${PORT}"
ART="${DRILL_ART:-drill-artifacts}"
DATA="$(mktemp -d)"
SERVE_PID=""

mkdir -p "$ART"

cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    # Failure: snapshot whatever state helps the post-mortem before
    # the temp directory vanishes.
    echo "drill: FAILED (exit $status) — capturing state" >&2
    curl -s "http://$URL/metrics" >"$ART/metrics-on-failure.txt" 2>/dev/null || true
    ls -la "$DATA" >"$ART/data-dir-on-failure.txt" 2>/dev/null || true
  fi
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -9 "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$DATA"
  exit "$status"
}
trap cleanup EXIT

if [ ! -x "$FMTM" ]; then
  cargo build --release -p exotica --bin fmtm
fi

echo "== phase 1: serve + load 200 =="
"$FMTM" serve examples/specs/trip.saga examples/specs/figure3.flex \
  --shards 2 --port "$PORT" --data "$DATA" >"$ART/serve-1.log" 2>&1 &
SERVE_PID=$!

"$FMTM" load --url "$URL" --wait-ready 30 --count 200 --rps 2000 \
  --connections 4 --ids-out "$ART/ids.txt" | tee "$ART/load-1.txt"

ACCEPTED=$(wc -l <"$ART/ids.txt")
if [ "$ACCEPTED" -lt 1 ]; then
  echo "drill: no accepted submissions recorded" >&2
  exit 1
fi
echo "drill: $ACCEPTED accepted ids recorded"

echo "== phase 1b: open-loop generator at a fixed 2000 rps =="
"$FMTM" load --url "$URL" --duration 3 --rps 2000 --open-loop \
  --connections 4 | tee "$ART/load-openloop.txt"
OL_ERRORS=$(sed -n 's/^load: .* overloaded, \([0-9]*\) errors.*/\1/p' "$ART/load-openloop.txt")
if [ -z "$OL_ERRORS" ] || [ "$OL_ERRORS" -ne 0 ]; then
  echo "drill: transport errors under open-loop load: ${OL_ERRORS:-unparsed}" >&2
  exit 1
fi

echo "== phase 2: kill -9 and restart on the same journals =="
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

"$FMTM" serve examples/specs/trip.saga examples/specs/figure3.flex \
  --shards 2 --port "$PORT" --data "$DATA" >"$ART/serve-2.log" 2>&1 &
SERVE_PID=$!

# --verify exits 3 if any recorded id is missing or not finished.
"$FMTM" load --url "$URL" --wait-ready 30 \
  --verify "$ART/ids.txt" --verify-timeout 60 | tee "$ART/verify.txt"

# Each shard's startup line says how many of the events it replayed
# were elided: a finished instance whose start and finish share a
# group commit's frame is applied as those two. None elided means the
# journal's framing no longer lets replay skip anything (the serve
# default stopped grouping, or an instance no longer opens a frame).
ELIDED=$(sed -n 's/^shard [0-9]*: opened in .*, \([0-9]*\) elided, .*/\1/p' "$ART/serve-2.log" |
  awk '{ n += $1 } END { print n + 0 }')
if [ "$ELIDED" -lt 1 ]; then
  echo "drill: the restart elided no replayed event:" >&2
  grep '^shard ' "$ART/serve-2.log" >&2 || true
  exit 1
fi
echo "drill: the restart elided $ELIDED replayed events"

# Fresh submissions after recovery must still be accepted.
"$FMTM" load --url "$URL" --count 50 --rps 2000 | tee "$ART/load-2.txt"
"$FMTM" load --url "$URL" --stop
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
if ! grep -q "stopped (journals drained and checkpointed)" "$ART/serve-2.log"; then
  echo "drill: graceful stop did not drain" >&2
  exit 1
fi

echo "== phase 3: live redeploy, kill -9, restart with the v1 spec =="
DATA3="$(mktemp -d)"
"$FMTM" serve examples/specs/trip.saga \
  --shards 2 --port "$PORT" --data "$DATA3" >"$ART/serve-4.log" 2>&1 &
SERVE_PID=$!

"$FMTM" load --url "$URL" --wait-ready 30 --count 20 --rps 2000 \
  --ids-out "$ART/ids-v1.txt" | tee "$ART/load-v1.txt"
OLD_ID=$(head -1 "$ART/ids-v1.txt")

version_of() {
  curl -sf "http://$URL/instances/$1" |
    sed -n 's/.*"version":"\([0-9a-f]*\)".*/\1/p'
}
V1=$(version_of "$OLD_ID")
if [ -z "$V1" ]; then
  echo "drill: could not read the v1 version hash of instance $OLD_ID" >&2
  exit 1
fi

# The edited v2: the Car step removed — a different content hash that
# uses only programs already provisioned by the running server.
V2SPEC="$DATA3/trip_v2.saga"
cat >"$V2SPEC" <<'EOF'
SAGA trip_booking
  STEP Flight PROGRAM "book_flight" COMPENSATION "cancel_flight"
  STEP Hotel  PROGRAM "book_hotel"  COMPENSATION "cancel_hotel"
  STEP Pay    PROGRAM "charge_card" COMPENSATION "refund_card"
END
EOF

"$FMTM" deploy "$V2SPEC" --url "$URL" --policy drain-old | tee "$ART/deploy.txt"
V2=$(sed -n 's/^deployed [^@]*@\([0-9a-f]*\).*/\1/p' "$ART/deploy.txt")
if [ -z "$V2" ] || [ "$V2" = "$V1" ]; then
  echo "drill: deploy did not produce a new version (v1=$V1 v2=${V2:-unparsed})" >&2
  exit 1
fi

# Every thread of the serving process by name, and the kernel's count:
# exactly main + reactors + the two shard workers.
thread_census() {
  local names threads reactors shards
  names=$(cat /proc/"$SERVE_PID"/task/*/comm | sort -u)
  threads=$(sed -n 's/^Threads:[[:space:]]*//p' /proc/"$SERVE_PID"/status)
  reactors=$(grep -c '^wfms-reactor-[0-9]*$' <<<"$names" || true)
  shards=$(grep -c '^wfms-shard-[0-9]*$' <<<"$names" || true)
  if grep -qvE '^(fmtm|wfms-reactor-[0-9]+|wfms-shard-[0-9]+)$' <<<"$names" ||
    [ "$shards" -ne 2 ] || [ "$reactors" -lt 1 ] ||
    [ "$threads" -ne $((1 + reactors + shards)) ]; then
    echo "drill: thread census $1: $threads threads, expected main + reactors + 2 shard workers only:" >&2
    echo "$names" >&2
    exit 1
  fi
  echo "drill: thread census $1: $threads threads (main, $reactors reactors, $shards shard workers)"
}
thread_census "after the deploy"

kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# Restart with the ORIGINAL v1 spec file: stored versions load from
# the templates/ directory and the v2 default must survive the crash.
"$FMTM" serve examples/specs/trip.saga \
  --shards 2 --port "$PORT" --data "$DATA3" >"$ART/serve-5.log" 2>&1 &
SERVE_PID=$!

"$FMTM" load --url "$URL" --wait-ready 30 \
  --verify "$ART/ids-v1.txt" --verify-timeout 60 | tee "$ART/verify-v1.txt"

GOT_V1=$(version_of "$OLD_ID")
if [ "$GOT_V1" != "$V1" ]; then
  echo "drill: instance $OLD_ID lost its pinned version after redeploy+crash ($GOT_V1 != $V1)" >&2
  exit 1
fi

"$FMTM" load --url "$URL" --count 1 --rps 2000 \
  --ids-out "$ART/ids-v2.txt" | tee "$ART/load-v2.txt"
NEW_ID=$(head -1 "$ART/ids-v2.txt")
GOT_V2=$(version_of "$NEW_ID")
if [ "$GOT_V2" != "$V2" ]; then
  echo "drill: post-restart submission ran $GOT_V2, expected deployed default $V2" >&2
  exit 1
fi

"$FMTM" load --url "$URL" --drain
thread_census "after the drain"

"$FMTM" load --url "$URL" --stop
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
rm -rf "$DATA3"

echo "drill: ok ($ACCEPTED instances survived kill -9; redeploy kept $V1 pinned and defaulted to $V2)"
