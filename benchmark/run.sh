#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it.
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# is kept inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/home/.config/go/telemetry"
# Telemetry off: with a fresh config directory the go command otherwise starts
# a detached sidecar process that outlives this script.
echo off >"$build/home/.config/go/telemetry/mode"
(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOWORK=off \
		GOTOOLCHAIN=local CGO_ENABLED=0 \
		go build -o "$build/benchmark" .
)
exec "$build/benchmark" -outdir "$here/out" "$@"
