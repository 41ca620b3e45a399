#!/usr/bin/env bash
# Nothing without a caller. Fails on a `pub fn`, `pub const` or
# `pub static` under crates/*/src (outside `wfbench`, the benchmark
# harness) whose name no other .rs file names: every file under crates/
# (`wfbench` included), tests/, examples/ and src/ counts as a caller,
# the defining file aside. Such an item is private, or it goes. The
# names below are kept with a reason each: a caller that is planned,
# not yet written.
# Prints every offending item and exits 1 if there is one.
#
# Usage: ci/unused_pub.sh [repo-root]     (default: the checkout this script is in)
set -euo pipefail
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT"

# <file> <function>   <reason>
ALLOW='
crates/txn-substrate/src/db.rs with_wal_file   the durable-tables item gives `fmtm serve` local databases a WAL file
'

mapfile -t FILES < <(find crates tests examples src -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort)

found=""
while IFS=: read -r file line def; do
  name="${def##* }"
  if grep -qE "^$file $name " <<<"$ALLOW"; then
    continue
  fi
  others=()
  for f in "${FILES[@]}"; do
    [ "$f" != "$file" ] && others+=("$f")
  done
  if ! grep -qw -- "$name" "${others[@]}"; then
    found+="$file:$line: ${def#"${def%%pub *}"}"$'\n'
  fi
done < <(grep -rnoE --include='*.rs' \
  '^[[:space:]]*pub (const fn|fn|const|static( mut)?) [A-Za-z_][A-Za-z0-9_]*' crates/*/src \
  | grep -v '^crates/wfbench/')

if [ -n "$found" ]; then
  printf '%s' "$found"
  echo "unused_pub: a pub item has no caller outside its file (make it private, or delete it)"
  exit 1
fi
echo "unused_pub: every pub fn, const and static has a caller outside its file"
