#!/usr/bin/env bash
# CI search smoke: the adversarial search's determinism and warm-store
# contracts through the real binaries. Three checks:
#   1. Same (families, seed, budget) at different -workers counts →
#      bitwise-identical corpus files.
#   2. A repeated search over a warm -store performs zero fresh
#      simulations (the CLI stats line proves it).
#   3. `zhuyi serve` over the same warm store answers POST /v1/search
#      for the same budget without simulating either — GET /v1/stats
#      must still show zero executed points.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)/zhuyi
store=$(mktemp -d)
out=$(mktemp -d)
addr=127.0.0.1:8498
trap 'rm -rf "$(dirname "$bin")" "$store" "$out"' EXIT
budget=(-families parked-corridor -seed 1 -generations 2 -population 3 -mrf-seeds 1 -fprs 5,30)
go build -o "$bin" ./cmd/zhuyi

# 1. Determinism across worker counts.
"$bin" scenarios search "${budget[@]}" -workers 1 -out "$out/corpus1.json" >/dev/null
"$bin" scenarios search "${budget[@]}" -workers 8 -out "$out/corpus8.json" >/dev/null
cmp "$out/corpus1.json" "$out/corpus8.json"
echo "search smoke: corpora identical across -workers 1 and 8"

# 2. Warm store rerun: zero fresh simulations, identical corpus.
"$bin" scenarios search "${budget[@]}" -store "$store" -out "$out/cold.json" >/dev/null 2>"$out/cold.err"
grep -q 'fresh simulations' "$out/cold.err"
"$bin" scenarios search "${budget[@]}" -store "$store" -out "$out/warm.json" >/dev/null 2>"$out/warm.err"
cat "$out/warm.err"
grep -q ' 0 fresh simulations' "$out/warm.err"
cmp "$out/cold.json" "$out/warm.json"
echo "search smoke: warm -store rerun simulated nothing"

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "server never became healthy" >&2
  return 1
}

# 3. The service over the warm store: same budget, zero executed.
"$bin" serve -addr "$addr" -store "$store" &
pid=$!
wait_healthy
curl -sf -X POST "http://$addr/v1/search" \
  -H 'Content-Type: application/json' \
  -d '{"families":["parked-corridor"],"seed":1,"generations":2,"population":3,"seeds":1,"fpr_grid":[5,30]}' \
  | tee "$out/server.ndjson"
grep -q '"corpus"' "$out/server.ndjson"
curl -s "http://$addr/v1/stats" | tee "$out/stats.json"
grep -q '"executed": 0' "$out/stats.json"
kill -TERM $pid
wait $pid
echo "search smoke: ok"
