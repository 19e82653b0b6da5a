#!/usr/bin/env bash
# Build the benchmark and brokerd from source, then run one workload:
#
#   bash perfbench/run.sh --workload sched-sim|serve-mix|alloc-large \
#     --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. Build output, span traces and the
# daemon's socket and log go under .bench_build/ there. The last line
# of stdout is the result as one JSON object.
set -eu
cd "$(dirname "$0")/.."
build=.bench_build
DUNE_CACHE=disabled dune build --root . --build-dir "$build" \
  ./perfbench/main.exe ./bin/brokerd.exe 1>&2
mkdir -p "$build/perfbench"
exec "$build/default/perfbench/main.exe" \
  --brokerd "$build/default/bin/brokerd.exe" --out-dir "$build/perfbench" "$@"
