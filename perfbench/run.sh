#!/usr/bin/env bash
# Builds the ledger and the service it drives from source, then runs
# perf.exe from the root of the checkout with the given arguments:
#
#   bash perfbench/run.sh run --workload exec_square --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh diff OLD NEW
#   bash perfbench/run.sh smoke
#
# Build outputs and run scratch files stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build
dune build --root . --build-dir "$build" --cache=disabled --display=quiet \
  ./perfbench/perf.exe ./bin/lsq_cli.exe 1>&2
exec "$build/default/perfbench/perf.exe" "$@" \
  --cli "$build/default/bin/lsq_cli.exe" --work "$build/perf-work"
