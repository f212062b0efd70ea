#!/usr/bin/env bash
# Builds maggd and the benchmark from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload flows --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, and the per-run traces,
# oracles and stores (removed when the run ends).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

# With telemetry in its default "local" mode, the go command forks a
# detached sidecar (its own session) that outlives the build. Turning it
# off in the fresh config dir above keeps every go command a single
# process that has ended when it returns.
go telemetry off
go build -o "$build/maggd" ./cmd/maggd
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --maggd "$build/maggd" --work "$build/work" "$@"
