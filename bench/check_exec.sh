#!/bin/sh
# CI gate: tier-1 build + tests (which include the QCheck parity suite:
# compiled executor == interpreted executor == Naive oracle on random
# plans), then the batch-executor assertions — median ns/row speedup
# >= 3x over the interpreted executor on the EXP-A operator mix at
# n_docs=800, zero result-set divergence between executors, and the
# plan-cache hit rate from PR 2 still >= 90% with hits now also skipping
# plan compilation.  Writes BENCH_exec.json next to this script's parent
# directory.  Exit code is non-zero on any failure.
#
# On top of the relative speedup gate, the script pins the *absolute*
# compiled cost: the new median_compiled_ns_per_row must not regress more
# than 10% over the value in the committed BENCH_exec.json.  A relative
# gate alone would let a change slow both executors down in lockstep and
# still pass; anchoring to the committed absolute number catches that.
# The check is skipped (with a notice) when the committed file predates
# the field or does not exist — the run then seeds the baseline.  The
# run writes to a temporary file that replaces BENCH_exec.json only once
# the anchor holds, so a failing run never becomes the next baseline.
#
# Pass --seed N (default 42) to regenerate the database from another
# Datagen seed; the flag is shared by all bench executables.
set -eu
cd "$(dirname "$0")/.."

baseline=""
if [ -f BENCH_exec.json ]; then
  baseline=$(sed -n 's/.*"median_compiled_ns_per_row": *\([0-9.]*\).*/\1/p' \
    BENCH_exec.json | head -n 1)
fi

dune build
dune runtest
fresh=$(mktemp BENCH_exec.json.XXXXXX)
trap 'rm -f "$fresh"' EXIT
dune exec bench/exec.exe -- --assert --docs 800 --json "$fresh" "$@"

current=$(sed -n 's/.*"median_compiled_ns_per_row": *\([0-9.]*\).*/\1/p' \
  "$fresh" | head -n 1)
if [ -z "$baseline" ]; then
  echo "check_exec: no committed median_compiled_ns_per_row; seeded baseline ${current} ns/row"
elif [ -z "$current" ]; then
  echo "check_exec: FAIL - rerun produced no median_compiled_ns_per_row" >&2
  exit 1
else
  # regression bound: current <= 1.1 * baseline
  ok=$(awk -v c="$current" -v b="$baseline" 'BEGIN { print (c <= 1.1 * b) ? 1 : 0 }')
  if [ "$ok" -eq 1 ]; then
    echo "check_exec: absolute ns/row ok (${current} vs baseline ${baseline}, bound +10%)"
  else
    echo "check_exec: FAIL - median compiled ns/row regressed: ${current} vs baseline ${baseline} (bound +10%); BENCH_exec.json left unchanged" >&2
    exit 1
  fi
fi
mv "$fresh" BENCH_exec.json
