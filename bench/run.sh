#!/usr/bin/env bash
# Builds cmd/traced and the benchmark into bench/out and runs the benchmark
# with the arguments given. Everything the build writes — binaries and the Go
# build cache — stays under bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here/.." && go build -o "$out/traced" ./cmd/traced)
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" -out "$out" "$@"
