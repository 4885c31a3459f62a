#!/usr/bin/env bash
# Benchmark of record: builds comparenbd and the perfbench driver from the
# checkout this script sits in, then runs one workload.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build output, Go cache and state dir stays under .bench_build/ in
# the checkout. Workloads, metrics and the reasons for them are in
# perfbench/workloads.go.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/comparenbd ] || [ ! -d internal/pipeline ]; then
    echo "perfbench: $root is not a comparenb checkout (no go.mod, cmd/comparenbd or internal/pipeline)" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0

go build -o "$build/bin/comparenbd" ./cmd/comparenbd
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -daemon "$build/bin/comparenbd" -workdir "$build/work/$$" "$@"
