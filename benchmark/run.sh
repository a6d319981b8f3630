#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything it writes (Go build cache,
# binary, traces) stays under .bench_build/ in the current directory, and
# the build never touches the network.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off
export GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd "$here" && go build -o "$out/hyperbal-bench" .)
exec "$out/hyperbal-bench" "$@"
