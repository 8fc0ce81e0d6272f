#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#
#   bash perfbench/run.sh --workload figure6 --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Build products, Go caches, temporary state
# and trace output all stay under .bench_build (or $CARGO_TARGET_DIR) in the
# current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out" --refs "$root/perfbench/testdata/ref" --benchmark "$root/BENCHMARK.json" "$@"
