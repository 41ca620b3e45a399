#!/usr/bin/env bash
# The navigator decides and calls nothing. A program activity it starts
# is handed out as a `Dispatch`, and the engine's loop answers it
# (`Engine::run_with`), so navigation is a function of the program
# outcomes. Fails when `crates/wfms-engine/src/navigator.rs` names a
# way to run a program or the databases one runs against:
# `ProgramCalls`, `ProgramOutcome`, `ProgramRegistry`, `ProgramContext`,
# `TxnProgram` or `MultiDatabase`. Comment lines count too: the module
# has no reason to name them.
# Prints every offending line and exits 1 if there is one.
#
# Usage: ci/pure_navigator.sh [repo-root]     (default: the checkout this script is in)
set -euo pipefail
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT"

NAVIGATOR=crates/wfms-engine/src/navigator.rs
if [ ! -f "$NAVIGATOR" ]; then
  echo "pure_navigator: $NAVIGATOR is gone; update ci/pure_navigator.sh"
  exit 1
fi

found="$(grep -nE '\b(ProgramCalls|ProgramOutcome|ProgramRegistry|ProgramContext|TxnProgram|MultiDatabase)\b' "$NAVIGATOR" || true)"
if [ -n "$found" ]; then
  echo "$found"
  echo "pure_navigator: the navigator names a way to run a program (hand out a Dispatch instead)"
  exit 1
fi
echo "pure_navigator: the navigator names no way to run a program"
