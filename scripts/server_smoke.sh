#!/usr/bin/env bash
# CI server smoke: start `zhuyi serve` with a persistent store, run a
# campaign through the Go client (zhuyi campaign -server), assert the
# identical second request answers from the memory tier, then restart
# the server over the same store and assert the disk tier — the last
# check read from GET /v1/stats, the first two from the client's own
# stats line. Also exercises graceful SIGTERM drain (both serves must
# exit 0).
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)/zhuyi
store=$(mktemp -d)
addr=127.0.0.1:8497
trap 'rm -rf "$(dirname "$bin")" "$store"' EXIT
go build -o "$bin" ./cmd/zhuyi

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "server never became healthy" >&2
  return 1
}

"$bin" serve -addr "$addr" -store "$store" &
pid=$!
wait_healthy

"$bin" campaign -server "http://$addr" -scenarios cut-out -fprs 30 -seeds 2 | tee /tmp/smoke-cold.out
grep -q '2 fresh, 0 memory, 0 disk' /tmp/smoke-cold.out

"$bin" campaign -server "http://$addr" -scenarios cut-out -fprs 30 -seeds 2 | tee /tmp/smoke-warm.out
grep -q '0 fresh, 2 memory, 0 disk' /tmp/smoke-warm.out

kill -TERM $pid
wait $pid   # graceful drain must exit 0

"$bin" serve -addr "$addr" -store "$store" &
pid=$!
wait_healthy

"$bin" campaign -server "http://$addr" -scenarios cut-out -fprs 30 -seeds 2 | tee /tmp/smoke-disk.out
grep -q '0 fresh, 0 memory, 2 disk' /tmp/smoke-disk.out

curl -s "http://$addr/v1/stats" | tee /tmp/smoke-stats.out
grep -q '"disk_hits": 2' /tmp/smoke-stats.out
grep -q '"executed": 0' /tmp/smoke-stats.out

kill -TERM $pid
wait $pid
echo "server smoke: ok"
