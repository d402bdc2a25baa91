#!/usr/bin/env bash
# Renders BENCH_replay.json from the persistent-store + differential
# replay benchmarks (internal/replay/bench_test.go) and gates the two
# headline claims of the binary trace format:
#
#   1. the disk tier's Get through the ZYT1 decoder must run at least
#      5x the same Get through the legacy gzip-JSONL decoder over
#      identical archived content, and
#   2. serving an archived result from disk must be at least 1.5x as
#      fast as re-simulating the point (simulate-vs-disk-get >= 1.5x),
#      so the store stays a faster path than the simulator it
#      short-cuts. The closure-free ZYT1 decoder read 2.29-3.59x over
#      six runs of this script on a 2-vCPU Intel Xeon; 1.5 is the
#      largest half-step it clears with a 30% margin.
#
# The full replay's ratio to a fresh simulation (simulate_vs_replay) is
# recorded but not gated: the two sit within host noise of each other.
#
# Every benchmark runs BENCH_COUNT times (default 3) and the gates use
# the minimum of each timing series: noise on a shared machine is
# strictly additive, so the minimum is the reproducible estimate of
# intrinsic cost. The mean is carried alongside for review.
#
# Usage: scripts/bench_store.sh [output.json]
#   BENCH_TIME=2s BENCH_COUNT=5 scripts/bench_store.sh   # more samples
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_replay.json}"
benchtime="${BENCH_TIME:-1s}"
benchcount="${BENCH_COUNT:-3}"

raw=$(go test -run '^$' \
	-bench 'BenchmarkReplayVsSimulate|BenchmarkMRFSearch|BenchmarkPersistentWarmStart' \
	-benchtime "$benchtime" -count "$benchcount" ./internal/replay)
echo "$raw"

cpu=$(echo "$raw" | awk -F': ' '/^cpu:/ {print $2}')

samples() { # samples <name>
	echo "$raw" | awk -v want="$1" '
		/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			if (name != want) next
			for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") print $i
		}'
}

agg() { # agg <name> <min|mean>
	v=$(samples "$1" | awk -v how="$2" '
		NR == 1 || $1 < m { m = $1 }
		{ s += $1; n++ }
		END { if (n) printf "%.0f", (how == "mean") ? s / n : m }')
	if [ -z "$v" ]; then
		echo "bench_store: no ns/op for $1" >&2
		exit 1
	fi
	echo "$v"
}

sim_ns=$(agg BenchmarkReplayVsSimulate/Simulate min)
sim_ns_mean=$(agg BenchmarkReplayVsSimulate/Simulate mean)
replay_ns=$(agg BenchmarkReplayVsSimulate/Replay min)
replay_ns_mean=$(agg BenchmarkReplayVsSimulate/Replay mean)
zyt_ns=$(agg BenchmarkReplayVsSimulate/DiskGetZYT min)
zyt_ns_mean=$(agg BenchmarkReplayVsSimulate/DiskGetZYT mean)
jsonl_ns=$(agg BenchmarkReplayVsSimulate/DiskGetJSONL min)
jsonl_ns_mean=$(agg BenchmarkReplayVsSimulate/DiskGetJSONL mean)
mrf_cold_ns=$(agg BenchmarkMRFSearch/ColdSimulate min)
mrf_warm_ns=$(agg BenchmarkMRFSearch/WarmManifest min)
camp_cold_ns=$(agg BenchmarkPersistentWarmStart/ColdSimulate min)
camp_warm_ns=$(agg BenchmarkPersistentWarmStart/WarmDisk min)

ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", a / b }'; }

r_zyt_vs_jsonl=$(ratio "$jsonl_ns" "$zyt_ns")
r_get_vs_sim=$(ratio "$sim_ns" "$zyt_ns")
r_replay_vs_sim=$(ratio "$sim_ns" "$replay_ns")
r_warm_manifest=$(ratio "$mrf_cold_ns" "$mrf_warm_ns")

cat > "$out" <<JSON
{
  "generated_by": "scripts/bench_store.sh (benchtime $benchtime, count $benchcount; ns values are min over repetitions, _mean is the arithmetic mean)",
  "cpu": "$cpu",
  "workload": "cut-out @ 30 FPR (one archived ~2500-row trace); MRF search: cut-out over the Table-1 grid, 2 seeds; warm-start campaign: 4 seeds",
  "point": {
    "simulate":       { "ns_per_op": $sim_ns, "ns_per_op_mean": $sim_ns_mean },
    "replay":         { "ns_per_op": $replay_ns, "ns_per_op_mean": $replay_ns_mean },
    "disk_get_zyt":   { "ns_per_op": $zyt_ns, "ns_per_op_mean": $zyt_ns_mean },
    "disk_get_jsonl": { "ns_per_op": $jsonl_ns, "ns_per_op_mean": $jsonl_ns_mean }
  },
  "campaign": {
    "mrf_cold_simulate_ns": $mrf_cold_ns,
    "mrf_warm_manifest_ns": $mrf_warm_ns,
    "warmstart_cold_simulate_ns": $camp_cold_ns,
    "warmstart_warm_disk_ns": $camp_warm_ns
  },
  "ratios": {
    "disk_get_zyt_vs_jsonl": $r_zyt_vs_jsonl,
    "simulate_vs_disk_get_zyt": $r_get_vs_sim,
    "simulate_vs_replay": $r_replay_vs_sim,
    "mrf_cold_vs_warm_manifest": $r_warm_manifest
  },
  "notes": [
    "disk_get_zyt vs disk_get_jsonl decode identical archived content (the bench fixture rewrites the recorded objects as gzip JSONL, as the retired legacy writer did), so the ratio isolates the ZYT1 columnar decoder against the legacy gzip-JSONL decoder: gate >= 5x.",
    "simulate_vs_disk_get_zyt compares acquiring one archived result from the disk tier against re-simulating the point from scratch: gate >= 1.5x, so warm-starting stays faster than the simulator it replaces. Against a DriveSim-class stack, where one closed-loop run costs minutes of GPU inference, the same ratio grows by orders of magnitude.",
    "mrf_cold_vs_warm_manifest is the manifest-only warm tier: MRF-style collision waves answer from the store manifest alone (no artifact decode, no simulation).",
    "simulate_vs_replay is the full replay against a fresh simulation; recorded, not gated (the two are within host noise).",
    "replay = artifact load + offline evaluator + alarm count + trace-re-derived min-gap/ego-stopped: the bit-stable regression summary zhuyi diff re-derives without touching the simulator.",
    "docs/benchmarks.md explains every series; regenerate with scripts/bench_store.sh."
  ]
}
JSON

echo "bench_store: wrote $out"
awk -v r="$r_zyt_vs_jsonl" 'BEGIN {
	printf "bench_store: disk Get via ZYT1 = %.2fx the gzip-JSONL decoder (gate: >= 5.0)\n", r
	exit (r >= 5.0) ? 0 : 1
}' || { echo "bench_store: ZYT decode speedup gate FAILED" >&2; exit 1; }
awk -v r="$r_replay_vs_sim" 'BEGIN { printf "bench_store: replay = %.2fx a fresh simulation (not gated)\n", r }'
awk -v r="$r_get_vs_sim" 'BEGIN {
	printf "bench_store: disk Get = %.2fx a fresh simulation (gate: >= 1.5)\n", r
	exit (r >= 1.5) ? 0 : 1
}' || { echo "bench_store: disk-Get-vs-simulate gate FAILED" >&2; exit 1; }
