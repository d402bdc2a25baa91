#!/usr/bin/env bash
# Capture CPU and heap profiles of the closed-loop campaign hot path
# through the real CLI (worker pool, engine scheduling, cache tiers —
# not just the Go benchmarks). Writes the binary next to
# the profiles so `go tool pprof` can symbolize without guessing.
#
# Usage: scripts/profile_sim.sh [outdir]           (default /tmp/zhuyi-prof)
#   PROFILE_ARGS="-tags table1 -fprs 10,30 -seeds 2" scripts/profile_sim.sh
#
# Analysis (see docs/benchmarks.md):
#   go tool pprof -top   OUTDIR/zhuyi OUTDIR/campaign.cpu.pprof
#   go tool pprof -peek  'Simulation..Step' OUTDIR/zhuyi OUTDIR/campaign.cpu.pprof
#   go tool pprof -inuse_space OUTDIR/zhuyi OUTDIR/campaign.mem.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-/tmp/zhuyi-prof}"
args="${PROFILE_ARGS:--tags table1 -fprs 10,30,60 -seeds 3}"
mkdir -p "$out"

go build -o "$out/zhuyi" ./cmd/zhuyi
# shellcheck disable=SC2086  # PROFILE_ARGS is intentionally word-split
"$out/zhuyi" campaign $args -quiet \
	-cpuprofile "$out/campaign.cpu.pprof" \
	-memprofile "$out/campaign.mem.pprof"

echo "profile_sim: wrote $out/campaign.cpu.pprof, $out/campaign.mem.pprof"
echo "profile_sim: next: go tool pprof -top $out/zhuyi $out/campaign.cpu.pprof"
