#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the root of the checkout and runs it from there.
# Everything the Go toolchain writes (build cache included) stays inside
# the checkout, and nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOENV=off GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
(cd "$here" && go build -o "$build/decisionbench" .)
cd "$root"
exec "$build/decisionbench" "$@"
