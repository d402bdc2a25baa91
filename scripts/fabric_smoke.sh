#!/usr/bin/env bash
# CI fabric smoke: three worker replicas over one shared store behind a
# coordinator. Proves, end to end on real processes:
#
#   1. a cold campaign through the coordinator partitions across the
#      replicas and simulates each point exactly once (sum of the
#      workers' /v1/stats executed counters == points),
#   2. the identical rerun answers entirely from the coordinator's warm
#      manifest tier (0 fresh, all disk, no new replica work),
#   3. a cold MRF search proxies to the owning replica once and the
#      identical rerun answers warm from the manifest (proxied stays 1),
#   4. SIGKILLing a replica mid-campaign is absorbed: the campaign
#      completes with 0 failed points, the coordinator reports retries
#      and the victim unhealthy, and — the zero-duplicate invariant —
#      every fresh simulation a surviving replica ran created a new
#      store entry (executed delta == archived delta per survivor; a
#      duplicate of an already-archived point would simulate fresh but
#      archive nothing),
#   5. after the kill, a warm rerun of the whole campaign answers every
#      point from the store: nothing the dead replica streamed or
#      archived was lost.
#
# Ports are fixed: the ring hashes replica URLs, so fixed ports pin the
# scenario partition (8561 owns 4 of the 9 Table-1 scenarios, 8562
# owns 3, 8563 owns 2) and the victim (8561) is guaranteed a share.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)/zhuyi
store=$(mktemp -d)
w1=127.0.0.1:8561
w2=127.0.0.1:8562
w3=127.0.0.1:8563
coord=127.0.0.1:8564
grid=1,2,3,4,5,6,7,8,9,10,15,30
seeds=6
points=648   # 9 scenarios x 12 rates x 6 seeds
go build -o "$bin" ./cmd/zhuyi

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$(dirname "$bin")" "$store"
}
trap cleanup EXIT

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -sf "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "fabric smoke: $1 never became healthy" >&2
  return 1
}

# stat <addr> <field>: first numeric value of a field in /v1/stats.
stat() {
  curl -s "http://$1/v1/stats" | awk -v k="\"$2\":" '$1 == k { gsub(/[^0-9]/, "", $2); print $2; exit }'
}

# -workers 1 keeps each replica's stream slow enough that the SIGKILL
# below reliably lands mid-campaign, even on a many-core runner.
"$bin" serve -addr "$w1" -store "$store" -workers 1 & pids+=($!); p1=$!
"$bin" serve -addr "$w2" -store "$store" -workers 1 & pids+=($!); p2=$!
"$bin" serve -addr "$w3" -store "$store" -workers 1 & pids+=($!); p3=$!
wait_healthy "$w1"; wait_healthy "$w2"; wait_healthy "$w3"

"$bin" serve -addr "$coord" -coordinator -replicas "http://$w1,http://$w2,http://$w3" \
  -store "$store" -backoff 100ms & pids+=($!); pc=$!
wait_healthy "$coord"

# 1. Cold 18-point campaign: partitioned, each point simulated once.
"$bin" campaign -server "http://$coord" -fprs 30 -seeds 2 -quiet | tee /tmp/fabric-cold.out
grep -q '18 fresh, 0 memory, 0 disk, 0 failed' /tmp/fabric-cold.out
executed=$(( $(stat "$w1" executed) + $(stat "$w2" executed) + $(stat "$w3" executed) ))
if [ "$executed" -ne 18 ]; then
  echo "fabric smoke: $executed fresh simulations across workers for 18 points" >&2
  exit 1
fi

# 2. Warm rerun: the coordinator's manifest tier answers everything.
"$bin" campaign -server "http://$coord" -fprs 30 -seeds 2 -quiet | tee /tmp/fabric-warm.out
grep -q '0 fresh, 0 memory, 18 disk, 0 failed' /tmp/fabric-warm.out

# 3. MRF: cold proxies to the owning replica, warm answers from the manifest.
curl -sf "http://$coord/v1/mrf/cut-out?seeds=2" | grep -q '"mrf"'
[ "$(stat "$coord" proxied)" -eq 1 ]
curl -sf "http://$coord/v1/mrf/cut-out?seeds=2" | grep -q '"mrf"'
[ "$(stat "$coord" proxied)" -eq 1 ]
[ "$(stat "$coord" disk_hits)" -gt 0 ]

# 4. Replica death mid-campaign. Snapshot the survivors, start the full
# campaign in the background, and SIGKILL the biggest owner mid-flight.
e2=$(stat "$w2" executed); a2=$(stat "$w2" archived)
e3=$(stat "$w3" executed); a3=$(stat "$w3" archived)
"$bin" campaign -server "http://$coord" -fprs "$grid" -seeds "$seeds" -quiet \
  > /tmp/fabric-kill.out & cpid=$!
# Kill early rather than late: a victim killed before it answers
# anything still exercises retry; a campaign that finishes before the
# kill exercises nothing.
sleep 1
kill -9 "$p1"
if ! wait "$cpid"; then
  echo "fabric smoke: campaign failed after replica kill" >&2
  cat /tmp/fabric-kill.out >&2
  exit 1
fi
cat /tmp/fabric-kill.out
grep -q ', 0 failed, 0 skipped' /tmp/fabric-kill.out
[ "$(stat "$coord" retried)" -gt 0 ]
curl -s "http://$coord/v1/stats" | grep -A1 "\"url\": \"http://$w1\"" | grep -q '"healthy": false'
# Zero duplicates: every fresh run a survivor executed archived a NEW
# store entry; re-simulating a point the victim had archived would
# raise executed without raising archived.
d2e=$(( $(stat "$w2" executed) - e2 )); d2a=$(( $(stat "$w2" archived) - a2 ))
d3e=$(( $(stat "$w3" executed) - e3 )); d3a=$(( $(stat "$w3" archived) - a3 ))
if [ "$d2e" -ne "$d2a" ] || [ "$d3e" -ne "$d3a" ]; then
  echo "fabric smoke: duplicate simulations after kill (w2 +${d2e} fresh/+${d2a} archived, w3 +${d3e} fresh/+${d3a} archived)" >&2
  exit 1
fi

# 5. Nothing lost: the whole campaign is warm from the shared store.
"$bin" campaign -server "http://$coord" -fprs "$grid" -seeds "$seeds" -quiet | tee /tmp/fabric-warm2.out
grep -q "0 fresh, 0 memory, $points disk, 0 failed" /tmp/fabric-warm2.out
[ "$(wc -l < "$store/manifest.jsonl")" -eq "$points" ]

# Graceful shutdown of everything still alive (drain must exit 0).
kill -TERM "$pc"; wait "$pc"
kill -TERM "$p2"; wait "$p2"
kill -TERM "$p3"; wait "$p3"
pids=()
echo "fabric smoke: ok"
