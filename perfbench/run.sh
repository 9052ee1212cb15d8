#!/usr/bin/env bash
# Builds the Sunflow benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload fb150 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --repeat 10 --workload dense48
#
# Every build and run artifact (Go build cache, binary, generated traces,
# daemon data directories, span files) stays under $CARGO_TARGET_DIR,
# default .bench_build, inside the repository.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
