#!/usr/bin/env bash
# No print in library code. A library reports through what it returns
# and what it counts (`wfms_observe`), never on its caller's terminal:
# fails on `print!`, `println!`, `eprint!`, `eprintln!` or `dbg!` in
# any .rs file under crates/*/src, comment lines aside. Exempt are the
# binary roots (src/bin/**, src/main.rs) and the two harness crates,
# `bench` and `wfbench`, whose output is their product.
# Prints every offending line and exits 1 if there is one.
#
# Usage: ci/no_print.sh [repo-root]     (default: the checkout this script is in)
set -euo pipefail
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT"

found="$(grep -rnE --include='*.rs' '\b(e?print(ln)?|dbg)!' crates/*/src \
  | grep -vE '^crates/[^/]+/src/(bin/|main\.rs:)' \
  | grep -vE '^crates/(bench|wfbench)/' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$found" ]; then
  echo "$found"
  echo "no_print: library code prints (return it or count it instead)"
  exit 1
fi
echo "no_print: no library crate prints"
