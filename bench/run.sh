#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (its own
# module) into .bench_build/ at the checkout root and runs it. The go
# command's build cache, module path and configuration directory (where
# it keeps its telemetry counters) are pointed there too, so nothing is
# written outside the checkout. The benchmark itself builds
# ./cmd/steadyd with the same environment.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
