#!/usr/bin/env bash
# Builds cmd/twd and the benchmark driver from source, then runs one
# workload. Run from the repository root:
#
#   bash e2ebench/run.sh -twd-flags "-sync-every 64 -sync-interval 5ms -granularity 10ms -shards 1" \
#       --workload twd-admit --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes lives under .bench_build/ in the
# working directory, including the Go build cache.
#
# The oracle's smoke test: (cd e2ebench && go test .)
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"

cd "$root/e2ebench"
go build -o "$out/bin/twd" timingwheels/cmd/twd
go build -o "$out/bin/e2ebench" .
cd "$root"
exec "$out/bin/e2ebench" -twd "$out/bin/twd" -work "$out/work" "$@"
