#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Every file the
# build writes stays under .bench_build/perfbench at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off GOPROXY=off
# The go command keeps telemetry counters under the user config directory.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
