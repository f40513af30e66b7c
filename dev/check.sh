#!/bin/sh
# CI / pre-push check.  `dune build @smoke` covers the full build, the
# test suite, seeded smoke runs of the differential fuzzers, the
# profiler-overhead gate (dev/profcheck.ml), and an in-sandbox sweepall
# checkpoint/resume smoke.  The out-of-sandbox sweep below additionally
# drives the real CLI over checkpoints on disk: a resumed run and a
# --jobs 2 run (64 cells, then the full quick matrix) must match an
# uninterrupted --jobs 1 run byte for byte (which compiles each distinct
# artifact once), so must a cold and a warm --cache-dir run (the cold
# one leaving a one-file store, the warm one compiling nothing and
# running no pipeline), and --fresh must discard the old rows.  Then
# the front door: a bad name or a flag of another kind is a usage error
# (exit 124) naming the value, and `submit sweep` through a live daemon
# streams the rows the one-shot `sweepall` writes.
set -e
cd "$(dirname "$0")/.."

# all scratch state lives in one private directory; no fixed /tmp names,
# no mktemp/rm window where another instance can grab the same path
tmpdir=$(mktemp -d)
serve_pid=
trap '[ -z "$serve_pid" ] || kill "$serve_pid" 2>/dev/null; rm -rf "$tmpdir"' \
  EXIT INT TERM

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
# the full quick matrix too (58 x 71 cells plus the header): at the end
# of its 4,060-cell second wave, a worker whose own queue is empty takes
# cells from its sibling's.  The sequential run compiles each of its
# 1,296 distinct artifacts once: one the LRU evicted is answered from
# its kept runs
dune exec bin/zkbench.exe -- sweepall --quick --no-disk-cache --jobs 1 \
  --checkpoint "$tmpdir/full1.ckpt" > "$tmpdir/full1.out"
sweep --no-disk-cache --jobs 2 --checkpoint "$tmpdir/full2.ckpt"
[ "$(wc -l < "$tmpdir/full1.ckpt")" -eq 4119 ] \
  || fail "the full quick sweep wrote $(wc -l < "$tmpdir/full1.ckpt") lines, want 4119"
grep -q ' disk hits, 1296 compiles ' "$tmpdir/full1.out" \
  || fail "--no-disk-cache --jobs 1 sweep: $(grep '^compile cache' "$tmpdir/full1.out")"
cmp "$tmpdir/full1.ckpt" "$tmpdir/full2.ckpt" \
  || fail "full-sweep --jobs 2 checkpoint differs from --jobs 1"
# a cold and a warm pass over one disk store give the same rows; the
# store is one file, its namespace's inputs.log (artifacts live in
# memory only), and the warm pass compiles nothing and runs no pipeline
# (and no guest: the log keeps every completed run)
store_sweep() {
  dune exec bin/zkbench.exe -- sweepall --quick --jobs 1 \
    --cache-dir "$tmpdir/store" --checkpoint "$tmpdir/$1.ckpt" > "$tmpdir/$1.out"
}
store_sweep store-cold
set -- "$tmpdir"/store/*
[ "$#" -eq 1 ] || fail "the cold --cache-dir sweep made $# namespaces, want 1"
[ "$(ls -A "$1")" = inputs.log ] \
  || fail "the cold --cache-dir store holds $(ls -A "$1" | wc -l) files, want inputs.log only"
store_sweep store-warm
for pass in store-cold store-warm; do
  cmp "$tmpdir/full1.ckpt" "$tmpdir/$pass.ckpt" \
    || fail "the $pass --cache-dir checkpoint differs from --no-disk-cache"
done
grep -q ': 0 mem + 0 disk hits, 0 compiles .* 0 pass pipelines$' "$tmpdir/store-warm.out" \
  || fail "warm --cache-dir sweep: $(grep '^compile cache' "$tmpdir/store-warm.out")"
# --fresh discards the old rows: the header plus exactly 3 new rows
sweep --fresh --limit 3 --checkpoint "$resumed"
[ "$(head -n 1 "$resumed")" = zkopt-ckpt-v2 ] || fail "--fresh lost the header"
[ "$(wc -l < "$resumed")" -eq 4 ] \
  || fail "--fresh left $(wc -l < "$resumed") lines, want header + 3 rows"

echo "== bad names are usage errors (CLI) =="
# the built binary, not `dune exec`: the daemon below is killed on
# failure, and killing a dune wrapper can leave dune's build lock held
zk=_build/default/bin/zkbench.exe
usage_error() {
  bad=$1
  shift
  code=0
  "$zk" "$@" > "$tmpdir/usage.out" 2>&1 || code=$?
  [ "$code" -eq 124 ] || fail "zkbench $*: exit $code, want 124"
  grep -qF -- "$bad" "$tmpdir/usage.out" \
    || fail "zkbench $*: the message does not name $bad"
}
usage_error nosuchprog run nosuchprog --quick
usage_error nosuch sweepall --quick --backends nosuch
usage_error nosuch settle --quick --profiles nosuch
usage_error nosuch fuzz --pipelines nosuch --no-checkpoint
usage_error --seeds submit sweep --seeds 1..5
"$zk" fuzz --seeds 1 --pipelines='-O3(zkvm)' --no-checkpoint > /dev/null \
  || fail "fuzz rejected the profile name -O3(zkvm)"

echo "== both doors give the same rows (CLI + daemon) =="
"$zk" serve --dir "$tmpdir/serve" > "$tmpdir/serve.log" 2>&1 &
serve_pid=$!
tries=0
until [ -S "$tmpdir/serve/zkbench.sock" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || fail "the daemon never opened its socket"
  sleep 0.1
done
"$zk" submit sweep --quick --limit 6 --dir "$tmpdir/serve" > "$tmpdir/submit.out"
tail -n 1 "$tmpdir/submit.out" | grep -q '^job-1 done:' \
  || fail "submit sweep did not end with the job's summary"
sed '$d' "$tmpdir/submit.out" > "$tmpdir/daemon.rows"
sweep --limit 6 --checkpoint "$tmpdir/cli.ckpt"
tail -n +2 "$tmpdir/cli.ckpt" > "$tmpdir/cli.rows"
cmp "$tmpdir/daemon.rows" "$tmpdir/cli.rows" \
  || fail "submit sweep rows differ from sweepall's checkpoint"
"$zk" shutdown --dir "$tmpdir/serve" > /dev/null
wait "$serve_pid"
serve_pid=

echo "check.sh: all green"
