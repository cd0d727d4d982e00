#!/usr/bin/env bash
# Builds the p2pindex CLI and the end-to-end benchmark from source, then
# runs the benchmark with the given arguments.  Run it from the root of the
# repository, e.g.
#
#   bash bench/e2e/run.sh --workload paper-lru --seed 42 --seconds 10 --trace 0
#
# The build's output goes to standard error, so the benchmark's JSON result
# stays the last line of standard output.  The shared dune cache is off so
# that the build reads and writes only inside the repository.
set -eu
export DUNE_CACHE=disabled
dune build --root . bin/p2pindex_cli.exe bench/e2e/main.exe 1>&2
exec _build/default/bench/e2e/main.exe "$@"
