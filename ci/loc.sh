#!/usr/bin/env bash
# Source lines per crate: the non-blank, non-comment lines under
# crates/*/src that are not inside a `#[cfg(test)]` item nor in a file
# reached through a `#[cfg(test)] mod name;` declaration, and the
# workspace total, as a Markdown table. CI appends it to the step
# summary; a PR that claims to shrink the code base quotes it for the
# parent and for the change.
#
# Usage: ci/loc.sh [repo-root]     (default: the checkout this script is in)
set -euo pipefail
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT"

# The awk program that counts the files it is given. A `#[cfg(test)]`
# attribute hides the item after it: up to the `}` at the attribute's
# own indentation for a braced item (rustfmt puts it there), up to the
# `;` otherwise.
COUNT='
    FNR == 1 { hide = 0 }
    {
      line = $0
      sub(/^[ \t]+/, "", line)
      indent = substr($0, 1, length($0) - length(line))
    }
    hide == 1 {                       # the line after the attribute
      if (line ~ /^#\[/) next         # further attributes on the item
      if (line ~ /\{$/) { hide = 2 } else if (line ~ /;$/) { hide = 0 } else { hide = 3 }
      next
    }
    hide == 2 { if ($0 == close_at) hide = 0; next }
    hide == 3 { if (line ~ /\{$/) hide = 2; else if (line ~ /;$/) hide = 0; next }
    line ~ /^#\[cfg\(test\)\]$/ { hide = 1; close_at = indent "}"; next }
    line == "" || line ~ /^\/\// { next }
    { n++ }
    END { print n + 0 }
'

# The awk program that names the files a `#[cfg(test)] mod name;`
# declaration reaches: `name.rs` or `name/mod.rs` beside a `lib.rs`,
# `main.rs` or `mod.rs`, and under the directory named after any other
# declaring file.
TEST_MODS='
    {
      line = $0
      sub(/^[ \t]+/, "", line)
    }
    test && line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;$/ {
      name = line; sub(/^.*mod /, "", name); sub(/;$/, "", name)
      dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
      stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
      if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
      print dir "/" name ".rs"
      print dir "/" name "/mod.rs"
    }
    { test = line ~ /^#\[cfg\(test\)\]$/ }
'

echo "| crate | source lines |"
echo "|---|---:|"
total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  [ -d "$dir/src" ] || continue
  tests="$(find "$dir/src" -name '*.rs' -print0 | xargs -0 -r awk "$TEST_MODS")"
  n=$(find "$dir/src" -name '*.rs' | sort | grep -vxF -e "${tests:-/}" | tr '\n' '\0' |
    xargs -0 -r awk "$COUNT")
  echo "| \`$crate\` | $n |"
  total=$((total + n))
done
echo "| **workspace** | **$total** |"
