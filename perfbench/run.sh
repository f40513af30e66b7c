#!/usr/bin/env bash
# Builds the benchmark from source, then runs it:
#   bash perfbench/run.sh --workload matrix|levels --seed N --seconds S --trace 0|1
# The last line of standard output is the JSON result (see main.ml).
set -eu
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
