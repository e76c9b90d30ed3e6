#!/usr/bin/env bash
# Builds the shipped hcperf-serve and the benchmark from the source in the
# current directory (the root of an hcperf checkout), then runs the
# benchmark:
#
#   bash hcbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch
# stores live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/hcbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off GOTOOLCHAIN=local
go build -o "$out/hcperf-serve" ./cmd/hcperf-serve
(cd hcbench && go build -o "$out/hcbench" .)
exec "$out/hcbench" -root "$root" -serve "$out/hcperf-serve" "$@"
