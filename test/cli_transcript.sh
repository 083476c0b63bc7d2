#!/usr/bin/env bash
# Usage: cli_transcript.sh LSQ_CLI TELEMETRY_FIXTURE
#
# Prints a transcript of fixed lsq_cli runs: each command line, then
# its stdout (and, for the usage errors, its stderr), then its exit
# status when it is not 0.  test/dune diffs
# the transcript against cli_transcript.expected, so any change to the
# CLI's output shows up there; accept an intended one with
# `dune promote`.
set -u
cli=$1
telemetry=$2
run() {
  printf '$ lsq_cli %s\n' "$*"
  "$cli" "$@"
  local rc=$?
  [ "$rc" -eq 0 ] || printf '[exit %d]\n' "$rc"
}
# A shape the runner rejects: exit 2 and one "error:" line on stderr.
usage_error() {
  run "$@" 2>&1
}
run qr
run backsub
run solve
run solve --solver lsqr --rows 512 --dim 64 --tile 32
run solve --execute --prec 2d --dim 32 --tile 8
run qr --execute --complex --prec 2d --dim 64 --tile 16
run backsub --execute --prec 2d --dim 64 --tile 16
# The executed run caps the shape; the capped tile must still divide it.
run qr --dim 100 --tile 10 --execute
run backsub --dim 100 --tile 10 --execute
run solve --dim 100 --tile 10 --execute
run roofline qr --json
run roofline backsub --json
run roofline solve --json
run roofline solve --solver lsqr --rows 16384 --dim 64 --tile 64 --prec 2d
# An executed fault-armed solve takes the fault-tolerant path.
run solve --execute --fault-rate 0.5 --dim 32 --tile 8 --prec 2d --fault-seed 1
run solve --execute --fault-rate 0.5 --dim 32 --tile 8 --prec 2d --fault-seed 2
run solve --execute --fault-rate 0.5 --dim 32 --tile 8 --prec 2d --fault-seed 3
# Every Newton correction of the path tracker is a direct least squares
# solve; the printed solutions pin their digits.
run psolve --prec 1d "x^2 + y^2 - 4; x*y - 1"
run psolve --prec 2d "x^2 + y^2 - 4; x*y - 1"
# The power series block Toeplitz solve (one QR of J0, then the tiled
# back substitution) and mixed-precision refinement both run the
# executed QR and back substitution; their printed errors pin the digits.
run toeplitz
run toeplitz --complex --prec 2d --block 4 --degree 4
run refine --lo 2d --hi 4d --dim 32 --tile 8
# The catalogues: Table 2's devices and Table 1's operation counts.
run devices
run precisions
# Condition numbers and the precision their digits at risk call for.
run cond
run cond --family vandermonde
# A seeded fault campaign replays bit-identically.
run faults --prec 2d --dim 32 --tile 8 --runs 3 --fault-rate 0.01
# A paper table as a batch; with --out the outcome lines go to the file
# and stdout carries only the summary.
run batch --sweep table3 --out /dev/null
# The one-shot monitor renders the last snapshot of a fixed telemetry
# file.
run monitor "$telemetry"
usage_error qr --dim 64 --rows 16 --tile 16
usage_error roofline solve --solver cg --rows 16 --dim 64
usage_error roofline solve --solver cg --rows 16 --dim 64 --tile 16
usage_error roofline backsub --rows 16
usage_error roofline backsub --rows 2048
usage_error roofline qr --solver lsqr
usage_error solve --dim 100 --tile 32
