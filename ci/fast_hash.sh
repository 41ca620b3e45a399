#!/usr/bin/env bash
# Outside bytes keep the keyed hasher. `txn_substrate::fast_hash` is
# unkeyed: whoever picks the keys a table inserts can make them collide
# and turn its lookups into linear probes, so only tables whose keys the
# process makes itself may use it (the module's docs state the rule).
# Fails when `FastMap`, `FastSet`, `FastHasher` or `fast_hash` appears
# in a module that decodes outside bytes: the frame decoder (journal
# and WAL files), the name interner (keyed by journal files' and
# deployed templates' names), the journal codec, and the server's
# request, body, route and tenants-file modules. Comment lines count
# too: a module that decodes outside bytes has no reason to name the
# hasher.
# Prints every offending line and exits 1 if there is one.
#
# Usage: ci/fast_hash.sh [repo-root]     (default: the checkout this script is in)
set -euo pipefail
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT"

OUTSIDE=(
  crates/txn-substrate/src/frame.rs
  crates/txn-substrate/src/name.rs
  crates/wfms-engine/src/codec.rs
  crates/wfms-server/src/http.rs
  crates/wfms-server/src/api.rs
  crates/wfms-server/src/routes.rs
  crates/wfms-server/src/tenant.rs
)
for f in "${OUTSIDE[@]}"; do
  if [ ! -f "$f" ]; then
    echo "fast_hash: $f is gone; update the list in ci/fast_hash.sh"
    exit 1
  fi
done

found="$(grep -nE '\b(FastMap|FastSet|FastHasher|fast_hash)\b' "${OUTSIDE[@]}" || true)"
if [ -n "$found" ]; then
  echo "$found"
  echo "fast_hash: a module that decodes outside bytes uses the unkeyed hasher (keep std's HashMap there)"
  exit 1
fi
echo "fast_hash: no module that decodes outside bytes uses the unkeyed hasher"
