#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there with the arguments given. Everything
# the go command writes (build cache, module cache, its own settings)
# is pointed into .bench_build/, so nothing is touched outside the
# checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$bench" -o "$out/rexbenchmark" .
cd "$root"
exec "$out/rexbenchmark" "$@"
