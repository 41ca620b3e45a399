#!/usr/bin/env bash
# No dependency without a user. For the root package and every
# crates/*/Cargo.toml:
#   - each [dependencies] name appears as a word, with `-` read as `_`,
#     somewhere in that package's src/;
#   - each [dev-dependencies] name appears so in its src/, tests/,
#     examples/ or benches/.
# Prints every declaration that fails and exits 1 if there is one.
#
# Usage: ci/unused_deps.sh [repo-root]     (default: the checkout this script is in)
set -euo pipefail
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT"

# The names declared in section `$2` of manifest `$1`, one a line.
declared() {
  awk -v want="[$2]" '
    /^\[/ { in_section = ($0 == want); next }
    in_section && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }
  ' "$1"
}

# Exits 0 if the word `$1` occurs in any .rs file under the
# directories that follow it (missing ones are skipped).
used_in() {
  local word="$1"
  shift
  local dirs=()
  for d in "$@"; do
    [ -d "$d" ] && dirs+=("$d")
  done
  [ "${#dirs[@]}" -gt 0 ] && grep -rqw --include='*.rs' -- "$word" "${dirs[@]}"
}

status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  pkg="$(dirname "$manifest")"
  while read -r name; do
    [ -n "$name" ] || continue
    if ! used_in "${name//-/_}" "$pkg/src"; then
      echo "$manifest: [dependencies] $name is not named in $pkg/src"
      status=1
    fi
  done < <(declared "$manifest" dependencies)
  while read -r name; do
    [ -n "$name" ] || continue
    if ! used_in "${name//-/_}" "$pkg/src" "$pkg/tests" "$pkg/examples" "$pkg/benches"; then
      echo "$manifest: [dev-dependencies] $name is not named in $pkg/{src,tests,examples,benches}"
      status=1
    fi
  done < <(declared "$manifest" dev-dependencies)
done
[ "$status" -eq 0 ] && echo "unused_deps: every declared dependency is named"
exit "$status"
