#!/usr/bin/env bash
# End-to-end smoke of the distributed serving tier: build dehealthd and
# dehealth-router, cut a synthetic world into two snapshot slices, boot
# one shard server per slice, front them with the router, and assert the
# routed /v1/query and /v1/batch answers are complete (partial=false),
# well-formed, and ordered score-desc/id-asc; that a /v1/query answers
# user 0 exactly as row 0 of a /v1/batch (the router sends both as one
# batch); and that an "approx": true query gets the plain query's reply.
# Exercises the same binaries and wire path an operator deploys, not the
# test harness.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building"
go build -o "$WORK/dehealthd" ./cmd/dehealthd
go build -o "$WORK/dehealth-router" ./cmd/dehealth-router

echo "== writing snapshot slices"
"$WORK/dehealthd" -synth 120 -synth-anon -seed 7 -shards 2 \
  -landmarks 10 -max-bigrams 80 -write-slices "$WORK/world"
ls -l "$WORK"/world.slice-*.snap

echo "== booting shard servers"
"$WORK/dehealthd" -addr 127.0.0.1:8701 -snapshot "$WORK/world.slice-0-of-2.snap" &
PIDS+=($!)
"$WORK/dehealthd" -addr 127.0.0.1:8702 -snapshot "$WORK/world.slice-1-of-2.snap" &
PIDS+=($!)

wait_200() { # url [tries]
  local url=$1 tries=${2:-50}
  for _ in $(seq "$tries"); do
    if curl -fsS "$url" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "timed out waiting for $url" >&2
  return 1
}
wait_200 http://127.0.0.1:8701/internal/shard
wait_200 http://127.0.0.1:8702/internal/shard
curl -fsS http://127.0.0.1:8701/internal/shard
echo
curl -fsS http://127.0.0.1:8702/internal/shard
echo

echo "== booting router"
"$WORK/dehealth-router" -addr 127.0.0.1:8800 \
  -shard http://127.0.0.1:8701 -shard http://127.0.0.1:8702 \
  -hedge-ms 50 -health-ms 200 &
PIDS+=($!)
wait_200 http://127.0.0.1:8800/healthz

echo "== routed queries"
curl -fsS -X POST http://127.0.0.1:8800/v1/query \
  -d '{"user": 0, "k": 5}' | tee "$WORK/query.json"
echo
curl -fsS -X POST http://127.0.0.1:8800/v1/query \
  -d '{"user": 0, "k": 5, "approx": true}' | tee "$WORK/query_approx.json"
echo
curl -fsS -X POST http://127.0.0.1:8800/v1/batch \
  -d '{"users": [0, 1, 2, 3], "k": 5}' | tee "$WORK/batch.json"
echo
curl -fsS http://127.0.0.1:8800/v1/stats
echo

python3 - "$WORK/query.json" "$WORK/batch.json" "$WORK/query_approx.json" <<'PY'
import json, sys

def check_order(cands, label):
    assert cands, f"{label}: empty candidate list"
    for a, b in zip(cands, cands[1:]):
        assert (a["score"], -a["user"]) >= (b["score"], -b["user"]), \
            f"{label}: merge order violated at {a} -> {b}"

q = json.load(open(sys.argv[1]))
assert not q.get("partial"), f"single query degraded to partial: {q}"
assert len(q["candidates"]) == 5, f"expected k=5 candidates: {q}"
check_order(q["candidates"], "query")

b = json.load(open(sys.argv[2]))
assert not b.get("partial"), f"batch degraded to partial: {b}"
assert len(b["results"]) == 4, f"expected 4 result lists: {b}"
for i, r in enumerate(b["results"]):
    assert len(r) == 5, f"batch user {i}: {len(r)} candidates, want 5"
    check_order(r, f"batch user {i}")
# Exactly: the same users and float bits (json.dumps tells -0.0 from 0.0).
assert json.dumps(b["results"][0]) == json.dumps(q["candidates"]), \
    f"user 0: query {q['candidates']} != batch row 0 {b['results'][0]}"

qa = json.load(open(sys.argv[3]))
assert json.dumps(qa) == json.dumps(q), \
    f"approx query reply {qa} != plain query reply {q}"
print("router smoke OK: complete, ordered, query == batch row 0, approx == plain")
PY
