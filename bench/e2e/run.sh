#!/usr/bin/env bash
# Builds gfq and the benchmark from source, then runs the benchmark from the
# repository root, passing every argument through:
#
#   bash bench/e2e/run.sh --workload wco-heavy --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . bin/gfq.exe bench/e2e/gfqbench.exe >&2
exec ./_build/default/bench/e2e/gfqbench.exe --gfq _build/default/bin/gfq.exe "$@"
