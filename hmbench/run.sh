#!/usr/bin/env bash
# Builds and runs hmbench, the repository benchmark, from the repository
# root: bash hmbench/run.sh --workload sim-run --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and the go command's own files (its
# telemetry counters live under the user config directory) stay under
# .bench_build/ in the current directory, which must be the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/hmbench" && go build -o "$out/hmbench" .)
exec "$out/hmbench" "$@"
