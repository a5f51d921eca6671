#!/bin/sh
# Builds the benchmark from the checkout it lives in and runs it with
# the given arguments. Everything it writes (build cache, binary, span
# files) stays inside the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
    echo "benchmark: $root is not a checkout of the repository (no go.mod): nothing to measure" >&2
    exit 2
fi
cd "$root"
build="$root/benchmark/.build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
