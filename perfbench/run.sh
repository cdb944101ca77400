#!/usr/bin/env bash
# Builds the benchmark and the a4serve daemon from source, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload serve-hits --seed 3 --seconds 20 --trace 0
# Run from the repository root. Everything it writes stays under
# .bench_build/, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
export HOME=$out/home XDG_CONFIG_HOME=$out/home TMPDIR=$out/tmp
(
	cd perfbench
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/a4serve" a4sim/cmd/a4serve
) >&2
exec "$out/bin/perfbench" -serve-bin "$out/bin/a4serve" -tmp "$out/tmp" "$@"
