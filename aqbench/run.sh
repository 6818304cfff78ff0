#!/usr/bin/env bash
# Builds cmd/aqserver and the aqbench load generator from the checkout in
# the current directory, then runs one benchmark workload:
#
#   bash aqbench/run.sh --workload aq-wire --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write lands under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, both binaries, server logs,
# per-run result files and span dumps. Run it from the repository root.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

go build -o "$out/aqserver" ./cmd/aqserver
(cd aqbench && go build -o "$out/aqbench" .)
exec "$out/aqbench" -server "$out/aqserver" -out "$out" "$@"
