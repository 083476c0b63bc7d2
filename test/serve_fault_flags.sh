#!/usr/bin/env bash
# Usage: serve_fault_flags.sh LSQ_CLI JOURNAL
#
# `lsq_cli serve` must refuse bad --fault-* flags like every other
# subcommand: exit 2 with nothing on stdout, before it serves a job or
# replays a journal.  JOURNAL is a crashed service's journal (committed
# lines and pending intents); it is copied, never written.
set -u
cli=$1
job='{"id":"f1","kind":"solve","device":"v100","prec":"2d","dim":64,"tile":16}'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp "$2" "$tmp/journal.jsonl"
status=0
expect_usage_error() {
  local out rc
  out=$(printf '%s\n' "$job" | "$cli" serve "$@" 2>/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ] || [ -n "$out" ]; then
    echo "serve $*: exit $rc with ${#out} bytes on stdout (want exit 2, no output)"
    status=1
  fi
}
expect_usage_error --fault-rate 0.1 --fault-kinds bogus
expect_usage_error --fault-rate=-0.5
expect_usage_error --fault-rate 0.1 --fault-kinds bogus \
  --journal "$tmp/journal.jsonl" --resume
exit $status
