#!/bin/sh
# CI gate: tier-1 build + tests (which include the fingerprint
# test and the same optimize.exe assertions at runtest scale), then the
# cold-optimization assertions — every query of the EXP-A mix and
# conj1-4 at n_docs=50 must explore exactly the committed baseline's
# variants, reach exactly its best cost, and allocate at most 10% more
# minor-heap words per explored variant.  Allocation per variant is
# deterministic, so the bound holds on any host; wall time is recorded,
# not gated.
#
# The run writes to a temporary file that replaces BENCH_optimize.json
# only once the gate passes, so a failing run never becomes the next
# baseline; without a committed BENCH_optimize.json the run seeds it.
# Extra arguments go to bench/optimize.exe (the baseline is pinned at
# its defaults, --docs 50 --seed 42).
set -eu
cd "$(dirname "$0")/.."
dune build
dune runtest
fresh=$(mktemp BENCH_optimize.json.XXXXXX)
trap 'rm -f "$fresh"' EXIT
dune exec bench/optimize.exe -- --assert --baseline BENCH_optimize.json \
  --json "$fresh" "$@"
mv "$fresh" BENCH_optimize.json
