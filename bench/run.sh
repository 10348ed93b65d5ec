#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Go's build cache and the
# toolchain's telemetry counters go there too, so nothing is written
# outside the checkout. The build is repeated on every call: with a warm
# cache it is a staleness check of well under a second, and it guarantees
# the binary matches the sources.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
rev="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
go build -C "$root/bench" -buildvcs=false -ldflags "-X main.gitRev=$rev" -o "$build/autopart-bench" .
cd "$root"
exec "$build/autopart-bench" "$@"
