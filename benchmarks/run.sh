#!/usr/bin/env bash
# Builds ctpmark from source into the checkout's build directory and runs
# it with the arguments given (the benchmark contract's command line).
# Everything the build and the run write stays inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
# The build is incremental: after the first run this only checks that the
# binary is current. Its diagnostics go to standard error; standard output
# carries nothing but the benchmark's own.
(cd "$root/benchmarks" && go build -o "$build/bin/ctpmark" ./cmd/ctpmark) >&2
exec "$build/bin/ctpmark" "$@"
