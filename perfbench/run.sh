#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   bash perfbench/run.sh --workload adhoc_mix --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --self-test
#
# Run from the repository root.  Everything it writes stays under the
# current directory: the dune build in _build/ and run files in
# .perfbench/.  The dune cache is disabled so nothing is written to the
# home directory.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a full source checkout" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2

# Identify the code under test: the git commit when there is one, and a
# digest of the library sources either way.
commit=none
if [[ -e .git ]]; then commit=$(git rev-parse --short HEAD 2>/dev/null || echo none); fi
src=$(find lib -type f \( -name '*.ml' -o -name '*.mli' \) | LC_ALL=C sort | xargs cat | md5sum | cut -c1-12)

exec ./_build/default/perfbench/main.exe "$@" --commit "git:${commit},src:${src}"
