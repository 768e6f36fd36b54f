#!/usr/bin/env bash
# Builds the system under test and the benchmark from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload rcv1-long --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (Go's build cache included), or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/sssjd ./cmd/sssj >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
