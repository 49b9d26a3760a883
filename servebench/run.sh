#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs it
# with the given arguments:
#
#   bash servebench/run.sh --workload cran-steady --seed 1 --seconds 24 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the checkout
# root, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
