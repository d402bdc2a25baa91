#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments from the checkout root:
#
#   bash perfbench/run.sh --workload table1_cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch stores all
# live under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
