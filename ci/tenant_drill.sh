#!/usr/bin/env bash
# Tenant-isolation drill: two tenants on one server.
#
# 1. Start `fmtm serve --tenants` with a quiet tenant (generous quota,
#    weight 4) and a hot tenant (quota 4, weight 1).
# 2. Auth taxonomy over the wire: no key and a wrong key answer `401`
#    (with `WWW-Authenticate` and `Connection: close`); the ops plane
#    stays keyless.
# 3. A plain closed-loop cohort per tenant, each under its own key: every
#    submission accepted, zero transport errors. Its ids feed 4–6.
# 4. Cross-tenant isolation: the hot key reading a quiet instance is
#    `403`; per-tenant counters appear in `/metrics`.
# 5. kill -9, restart on the same data directory: every accepted id
#    verifies finished *under its own tenant's key*, and tenant
#    ownership survives recovery (cross-tenant reads still `403`).
# 6. Hot reload: rotate the hot tenant's key on disk, then
#    `POST /admin/reload-tenants` — the old key dies, the rotated key
#    reaches the tenant's recovered instances.
#
# Saturation — a hot tenant past its quota answered `429` with
# `Retry-After` while a quiet one is never refused, and DRR shares by
# weight — is not a phase here: the seeded simulator over the shard's
# step function (`crates/wfms-server/src/shard/sim.rs`) checks it after
# every step, and `tenant_quota_answers_429_with_retry_after` over
# loopback HTTP.
#
# Artifacts (server logs, load reports, id lists, metrics snapshots)
# land in $ART for CI upload. Exits non-zero on any isolation breach.
set -euo pipefail

cd "$(dirname "$0")/.."

FMTM=target/release/fmtm
PORT="${DRILL_PORT:-7423}"
URL="127.0.0.1:${PORT}"
ART="${DRILL_ART:-tenant-drill-artifacts}"
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

TENANTS="$DATA/tenants.json"
cat >"$TENANTS" <<'EOF'
{"tenants":[
  {"name":"quiet","key":"k-quiet","weight":4,"max_inflight":64},
  {"name":"hot","key":"k-hot","weight":1,"max_inflight":4}
]}
EOF

echo "== phase 1: serve with two tenants =="
"$FMTM" serve examples/specs/trip.saga \
  --shards 2 --port "$PORT" --data "$DATA" --tenants "$TENANTS" \
  >"$ART/serve-1.log" 2>&1 &
SERVE_PID=$!

"$FMTM" load --url "$URL" --wait-ready 30 --api-key k-quiet --count 1 \
  >/dev/null

echo "== phase 2: auth taxonomy over the wire =="
NOKEY=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{}' "http://$URL/instances")
if [ "$NOKEY" != "401" ]; then
  echo "drill: submit without a key answered $NOKEY, want 401" >&2
  exit 1
fi
curl -s -i -X POST -d '{}' "http://$URL/instances" >"$ART/401-headers.txt"
if ! grep -qi '^www-authenticate: *bearer' "$ART/401-headers.txt"; then
  echo "drill: 401 without WWW-Authenticate" >&2
  exit 1
fi
if ! grep -qi '^connection: *close' "$ART/401-headers.txt"; then
  echo "drill: 401 without Connection: close" >&2
  exit 1
fi
BADKEY=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -H 'Authorization: Bearer wrong' -d '{}' "http://$URL/instances")
if [ "$BADKEY" != "401" ]; then
  echo "drill: submit with a wrong key answered $BADKEY, want 401" >&2
  exit 1
fi
OPS=$(curl -s -o /dev/null -w '%{http_code}' "http://$URL/healthz")
if [ "$OPS" != "200" ]; then
  echo "drill: keyless /healthz answered $OPS, want 200" >&2
  exit 1
fi

echo "== phase 3: a closed-loop cohort per tenant =="
parse() { # parse FIELD FILE — pull a count off the `load:` line
  case "$1" in
    sent)       sed -n 's/^load: \([0-9]*\) sent.*/\1/p' "$2" ;;
    accepted)   sed -n 's/^load: .* \([0-9]*\) accepted.*/\1/p' "$2" ;;
    overloaded) sed -n 's/^load: .* \([0-9]*\) overloaded.*/\1/p' "$2" ;;
    errors)     sed -n 's/^load: .* \([0-9]*\) errors.*/\1/p' "$2" ;;
  esac
}
# The hot tenant runs one connection: its quota of 4 is never reached.
for tenant in quiet:4 hot:1; do
  name=${tenant%:*}
  "$FMTM" load --url "$URL" --api-key "k-$name" --count 50 --rps 200 \
    --connections "${tenant#*:}" --ids-out "$ART/ids-$name.txt" | tee "$ART/load-$name.txt"
  SENT=$(parse sent "$ART/load-$name.txt")
  ACC=$(parse accepted "$ART/load-$name.txt")
  ERR=$(parse errors "$ART/load-$name.txt")
  if [ -z "$SENT" ] || [ "$ACC" != "$SENT" ] || [ "$ERR" != "0" ]; then
    echo "drill: $name cohort not clean (sent=$SENT accepted=$ACC errors=$ERR)" >&2
    exit 1
  fi
done

echo "== phase 4: cross-tenant isolation + per-tenant metrics =="
QUIET_ID=$(head -1 "$ART/ids-quiet.txt")
CROSS=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Authorization: Bearer k-hot' "http://$URL/instances/$QUIET_ID")
if [ "$CROSS" != "403" ]; then
  echo "drill: hot key read quiet instance $QUIET_ID: $CROSS, want 403" >&2
  exit 1
fi
OWN=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Authorization: Bearer k-quiet' "http://$URL/instances/$QUIET_ID")
if [ "$OWN" != "200" ]; then
  echo "drill: quiet key cannot read its own instance: $OWN" >&2
  exit 1
fi
curl -s "http://$URL/metrics" >"$ART/metrics-1.txt"
for family in \
  'server_tenant_accepted{tenant="quiet"}' \
  'server_tenant_accepted{tenant="hot"}' \
  'server_tenant_overloaded{tenant="hot"}'; do
  if ! grep -qF "$family" "$ART/metrics-1.txt"; then
    echo "drill: /metrics missing $family" >&2
    exit 1
  fi
done

echo "== phase 5: kill -9 and recover per-tenant ids under the right keys =="
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

"$FMTM" serve examples/specs/trip.saga \
  --shards 2 --port "$PORT" --data "$DATA" --tenants "$TENANTS" \
  >"$ART/serve-2.log" 2>&1 &
SERVE_PID=$!

# Every acknowledged id must verify finished under its own key.
"$FMTM" load --url "$URL" --wait-ready 30 --api-key k-quiet \
  --verify "$ART/ids-quiet.txt" --verify-timeout 60 | tee "$ART/verify-quiet.txt"
"$FMTM" load --url "$URL" --api-key k-hot \
  --verify "$ART/ids-hot.txt" --verify-timeout 60 | tee "$ART/verify-hot.txt"

# Ownership survives recovery: the cross-tenant read is still 403.
CROSS2=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Authorization: Bearer k-hot' "http://$URL/instances/$QUIET_ID")
if [ "$CROSS2" != "403" ]; then
  echo "drill: cross-tenant read answered $CROSS2 after restart, want 403" >&2
  exit 1
fi

echo "== phase 6: hot key rotation over /admin/reload-tenants =="
HOT_ID=$(head -1 "$ART/ids-hot.txt")
cat >"$TENANTS" <<'EOF'
{"tenants":[
  {"name":"quiet","key":"k-quiet","weight":4,"max_inflight":64},
  {"name":"hot","key":"rotated","weight":1,"max_inflight":4}
]}
EOF
RELOAD=$(curl -s -o "$ART/reload.txt" -w '%{http_code}' -X POST \
  "http://$URL/admin/reload-tenants")
if [ "$RELOAD" != "200" ]; then
  echo "drill: reload-tenants answered $RELOAD: $(cat "$ART/reload.txt")" >&2
  exit 1
fi
OLDKEY=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Authorization: Bearer k-hot' "http://$URL/instances/$HOT_ID")
NEWKEY=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Authorization: Bearer rotated' "http://$URL/instances/$HOT_ID")
if [ "$OLDKEY" != "401" ] || [ "$NEWKEY" != "200" ]; then
  echo "drill: key rotation failed (old=$OLDKEY want 401, new=$NEWKEY want 200)" >&2
  exit 1
fi

curl -s "http://$URL/metrics" >"$ART/metrics-2.txt"
"$FMTM" load --url "$URL" --stop
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "drill: ok (per-tenant ids recovered under their own keys; cross-tenant reads 403; key rotation live)"
