#!/bin/sh
# CI / pre-push check.  `dune build @smoke` covers the full build, the
# test suite, seeded smoke runs of the differential fuzzers, the
# profiler-overhead gate (dev/profcheck.ml), and an in-sandbox sweepall
# checkpoint/resume smoke.  The out-of-sandbox sweep below additionally
# drives the real CLI over checkpoints on disk: a resumed run and a
# --jobs 2 run must match an uninterrupted --jobs 1 run byte for byte,
# and --fresh must discard the old rows.
set -e
cd "$(dirname "$0")/.."

# all scratch state lives in one private directory; no fixed /tmp names,
# no mktemp/rm window where another instance can grab the same path
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT INT TERM

echo "== dune build @smoke =="
dune build @smoke

echo "== sweepall resume smoke (CLI) =="
sweep() { dune exec bin/zkbench.exe -- sweepall --quick "$@" > /dev/null; }
fail() { echo "check.sh: $*" >&2; exit 1; }
resumed="$tmpdir/resumed.ckpt"
straight="$tmpdir/straight.ckpt"
# two time slices of 3 cells must give the bytes of one 6-cell run
sweep --limit 3 --checkpoint "$resumed"
sweep --limit 3 --checkpoint "$resumed"
sweep --limit 6 --checkpoint "$straight"
cmp "$resumed" "$straight" \
  || fail "resumed rows differ from an uninterrupted run"
# rows reach the checkpoint in plan order at any --jobs: 64 cells are
# the 58 baselines plus 6 more, so both waves run
sweep --no-disk-cache --limit 64 --jobs 1 --checkpoint "$tmpdir/j1.ckpt"
sweep --no-disk-cache --limit 64 --jobs 2 --checkpoint "$tmpdir/j2.ckpt"
cmp "$tmpdir/j1.ckpt" "$tmpdir/j2.ckpt" \
  || fail "--jobs 2 checkpoint differs from --jobs 1"
# --fresh discards the old rows: the header plus exactly 3 new rows
sweep --fresh --limit 3 --checkpoint "$resumed"
[ "$(head -n 1 "$resumed")" = zkopt-ckpt-v2 ] || fail "--fresh lost the header"
[ "$(wc -l < "$resumed")" -eq 4 ] \
  || fail "--fresh left $(wc -l < "$resumed") lines, want header + 3 rows"

echo "check.sh: all green"
