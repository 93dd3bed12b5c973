#!/usr/bin/env bash
# Driver entry point (the "command" of the root BENCHMARK.json): build
# the ledger from source into .bench_build/ inside the checkout, then
# run it with the driver's arguments. Go's build cache, module cache
# and temp files are kept inside the checkout too, so nothing outside
# it is read or written. In a directory that holds only BENCHMARK.json
# and benchmarks/ the build fails (the replaced root module is not
# there) and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/ledger" ./ledger
exec "$build/ledger" "$@"
