#!/usr/bin/env bash
# Source lines per crate, parent → change: `ci/loc.sh` (this checkout's
# counting rule) run on two trees and joined by crate, as a Markdown
# table. CI runs it on the PR's base commit and the PR; a PR that
# claims to shrink the code base quotes this table, not one it typed.
#
# Usage: ci/loc_diff.sh PARENT_ROOT [CHANGE_ROOT]   (default: this checkout)
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
PARENT="${1:?usage: ci/loc_diff.sh PARENT_ROOT [CHANGE_ROOT]}"
CHANGE="${2:-$HERE/..}"

echo "| crate | parent | change | Δ |"
echo "|---|---:|---:|---:|"
awk -F'|' '
  FNR <= 2 { next }                         # the two header rows of each table
  { name = $2; n = $3; gsub(/[ *]/, "", n) }
  NR == FNR { parent[name] = n; next }
  { seen[name] = 1; printf "|%s| %d | %d | %+d |\n", name, parent[name], n, n - parent[name] }
  END {
    for (name in parent)
      if (!(name in seen)) printf "|%s| %d | 0 | %+d |\n", name, parent[name], -parent[name]
  }
' <("$HERE/loc.sh" "$PARENT") <("$HERE/loc.sh" "$CHANGE")
