#!/usr/bin/env bash
# CI smoke for the scenario-sharded timingd cluster: save a snapshot pack
# from a single daemon, boot a coordinator plus two workers restored from
# that shared pack (one scenario each), push a concurrent burst of reads and
# what-ifs through the coordinator, check a self-conflicting batch is refused
# 400 with both workers still alive, commit an ECO through the epoch barrier,
# kill -9 one worker under concurrent reads, verify every read before, during
# and after the kill answers 200 while every write against the degraded
# cluster refuses 503, then restart the worker and verify catch-up replay
# reconverges the cluster so the next ECO commits everywhere. It gates on no
# timing: throughput and latency are bench/'s to report.
set -euo pipefail

COORD_ADDR="127.0.0.1:18380"
W1_ADDR="127.0.0.1:18381"
W2_ADDR="127.0.0.1:18382"
COORD="http://$COORD_ADDR"
W1_SCEN="func_ss_cw"
W2_SCEN="func_ff_cb"

WORK="$(mktemp -d)"
BIN="$WORK/timingd"
SNAPDIR="$WORK/snap"
READER_PIDS=()

cleanup() {
  touch "$WORK/stop"
  for pid in "${W2PID:-}" "${W1PID:-}" "${CPID:-}" "${DPID:-}" "${SNPID:-}" "${READER_PIDS[@]}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "cluster smoke FAILED: $1"
  for log in seed coord w1 w2 w2b; do
    [[ -f "$WORK/$log.log" ]] && { echo "--- $log.log"; tail -40 "$WORK/$log.log"; }
  done
  exit 1
}

# wait_until URL GREP_PATTERN DESC [TRIES]
wait_until() {
  local url="$1" pattern="$2" desc="$3" tries="${4:-100}"
  for i in $(seq 1 "$tries"); do
    if curl -s "$url" 2>/dev/null | grep -q "$pattern"; then return 0; fi
    sleep 0.2
  done
  fail "timed out waiting for $desc"
}

# same_read TARGET TAG: the coordinator answers GET TARGET with the single
# node's bytes (the node is booted below).
same_read() {
  curl -sf "http://$SN_ADDR$1" >"$WORK/single.$2" || fail "single-node GET $1"
  curl -sf "$COORD$1" >"$WORK/cluster.$2" || fail "cluster GET $1"
  cmp "$WORK/single.$2" "$WORK/cluster.$2" \
    || fail "$1 diverges between single node and 2-shard cluster"
}
PATHS_Q="/paths?scenario=$W2_SCEN&kind=setup&k=20"
ENDPOINTS_Q="/endpoints?scenario=$W1_SCEN&kind=hold&limit=40"

go build -o "$BIN" ./cmd/timingd

# Seed pack: one plain daemon builds the design, saves a snapshot, dies.
# Everything after boots from that pack — the cluster's shared truth.
"$BIN" -addr "$W1_ADDR" -gates 700 -ffs 48 -snapshot-dir "$SNAPDIR" >"$WORK/seed.log" 2>&1 &
DPID=$!
for i in $(seq 1 100); do
  curl -sf "http://$W1_ADDR/healthz" >/dev/null 2>&1 && break
  kill -0 "$DPID" 2>/dev/null || { echo "seed daemon exited:"; cat "$WORK/seed.log"; exit 1; }
  sleep 0.2
done
OP_JSON="$(grep -o '{"op":.*}' "$WORK/seed.log" | head -1)"
[[ -n "$OP_JSON" ]] || fail "no example op in seed banner"
curl -sf -X POST "http://$W1_ADDR/admin/save" >"$WORK/save.json" || fail "POST /admin/save"
PACK="$(sed -n 's/.*"path":"\([^"]*\)".*/\1/p' "$WORK/save.json")"
[[ -f "$PACK" ]] || fail "snapshot pack $PACK not on disk"
kill -9 "$DPID"; wait "$DPID" 2>/dev/null || true
unset DPID
echo "cluster smoke: pack saved at $PACK, example op $OP_JSON"

# Coordinator + two workers, one scenario each, all from the shared pack.
"$BIN" -addr "$COORD_ADDR" -role coordinator -restore "$PACK" -heartbeat 100ms >"$WORK/coord.log" 2>&1 &
CPID=$!
wait_until "$COORD/healthz" '"role":"coordinator"' "coordinator boot"
"$BIN" -addr "$W1_ADDR" -role worker -restore "$PACK" -join "$COORD" \
  -scenarios "$W1_SCEN" -heartbeat 100ms >"$WORK/w1.log" 2>&1 &
W1PID=$!
"$BIN" -addr "$W2_ADDR" -role worker -restore "$PACK" -join "$COORD" \
  -scenarios "$W2_SCEN" -heartbeat 100ms >"$WORK/w2.log" 2>&1 &
W2PID=$!
wait_until "$COORD/healthz" '"status":"ok"' "both workers alive"
curl -s "$COORD/healthz" | grep -q '"degraded":false' || fail "cluster degraded at boot"
echo "cluster smoke: coordinator + 2 workers converged"

# Merged reads and one barrier commit across both shards.
curl -sf "$COORD/slack" >"$WORK/slack0.json" || fail "GET /slack"
grep -q "\"$W1_SCEN\"" "$WORK/slack0.json" && grep -q "\"$W2_SCEN\"" "$WORK/slack0.json" \
  || fail "merged slack missing a scenario"
# The coordinator mounts on the same serving spine as a node: it echoes the
# caller's trace ID, exposes Prometheus metrics, and its flight recorder
# lists the request — the three checks timingd_smoke.sh makes on a node.
TRACE_ID="$(curl -sf -D - -o /dev/null -H 'X-Trace-Id: c0ffee0000000001' "$COORD/slack" \
  | tr -d '\r' | sed -n 's/^X-Trace-Id: //p')"
[[ "$TRACE_ID" == "c0ffee0000000001" ]] || fail "coordinator did not echo X-Trace-Id (got '$TRACE_ID')"
curl -sf "$COORD/metrics?format=prom" | grep -q '^cluster_slack_requests_total ' \
  || fail "coordinator /metrics?format=prom has no cluster_slack_requests_total"
curl -sf "$COORD/debug/requests" | grep -q '"trace_id":"c0ffee0000000001"' \
  || fail "coordinator /debug/requests does not list the traced /slack"
echo "cluster smoke: coordinator echoes trace IDs, serves /metrics and /debug/requests"

# Triage merge identity: a single node restored from the same pack (all
# scenarios resident) must serve /triage byte-identical to the 2-shard
# coordinator merging per-scenario extracts — same clusters, same ranks,
# same prune audit, the same trailing newline. The node stays up for the
# same comparison after the barrier ECO below.
SN_ADDR="127.0.0.1:18383"
"$BIN" -addr "$SN_ADDR" -restore "$PACK" >"$WORK/single.log" 2>&1 &
SNPID=$!
for i in $(seq 1 100); do
  curl -sf "http://$SN_ADDR/healthz" >/dev/null 2>&1 && break
  kill -0 "$SNPID" 2>/dev/null || fail "single-node reference exited"
  sleep 0.2
done
curl -sf "http://$SN_ADDR/triage" >"$WORK/triage_single.json" || fail "single-node GET /triage"
curl -sf "$COORD/triage" >"$WORK/triage_cluster.json" || fail "cluster GET /triage"
grep -q '"stats"' "$WORK/triage_single.json" || fail "single-node /triage has no stats"
cmp "$WORK/triage_single.json" "$WORK/triage_cluster.json" \
  || fail "/triage diverges between single node and 2-shard cluster"
# A proxied read is the worker's body passed through unchanged.
same_read "$PATHS_Q" paths0
same_read "$ENDPOINTS_Q" endpoints0
grep -q '^{"epoch":0,' "$WORK/cluster.paths0" || fail "cluster /paths not at epoch 0"
# The gathered what-if: each shard evaluates the op on its own scenarios,
# and the merged report must be the single node's, byte for byte.
curl -sf -d "{\"ops\":[$OP_JSON]}" "http://$SN_ADDR/whatif" >"$WORK/whatif_single.json" \
  || fail "single-node POST /whatif"
curl -sf -d "{\"ops\":[$OP_JSON]}" "$COORD/whatif" >"$WORK/whatif_cluster.json" || fail "cluster POST /whatif"
cmp "$WORK/whatif_single.json" "$WORK/whatif_cluster.json" \
  || fail "/whatif diverges between single node and 2-shard cluster"
echo "cluster smoke: /triage, /paths, /endpoints and /whatif byte-identical between single node and 2-shard cluster"

# Concurrent burst, a fixed count and no clock: 8 clients × 20 rounds of
# GET /slack and GET /paths with a POST /whatif every 4th round, all through
# the coordinator. Every answer must be 200 (429 is a worker's legal
# backpressure), and forty what-ifs racing the merged reads must leave
# /slack byte-identical.
BURST_PIDS=()
for c in $(seq 1 8); do
  (
    for round in $(seq 1 20); do
      curl -s -o /dev/null -w '%{http_code}\n' "$COORD/slack" || true
      curl -s -o /dev/null -w '%{http_code}\n' "$COORD/paths?k=2" || true
      (( round % 4 )) || curl -s -o /dev/null -w '%{http_code}\n' \
        -d "{\"ops\":[$OP_JSON]}" "$COORD/whatif" || true
    done >"$WORK/burst.$c"
  ) &
  BURST_PIDS+=($!)
done
wait "${BURST_PIDS[@]}"
cat "$WORK"/burst.* >"$WORK/burst.codes"
ISSUED="$(wc -l <"$WORK/burst.codes")"
[[ "$ISSUED" -eq 360 ]] || fail "burst recorded $ISSUED answers, want 360"
BAD="$(grep -vxE '200|429' "$WORK/burst.codes" | sort | uniq -c || true)"
[[ -z "$BAD" ]] || fail "burst got answers outside {200, 429}: $BAD"
curl -sf "$COORD/slack" >"$WORK/slack0b.json" || fail "GET /slack after burst"
cmp -s "$WORK/slack0.json" "$WORK/slack0b.json" || fail "what-if burst perturbed the merged baseline"
echo "cluster smoke: 360 concurrent requests, $(grep -cx 200 "$WORK/burst.codes") answered 200, merged baseline byte-identical"

# A batch whose second buffer op names the clock load the first one moved is
# the client's fault: every shard refuses its prepare, the coordinator
# answers 400, and no worker is evicted.
CONFLICT_OP='{"op":"buffer","net":"cknet_6","loads":["ff0/CK"],"to":"BUF_X2_SVT"}'
CODE="$(curl -s -o "$WORK/conflict.json" -w '%{http_code}' \
  -d "{\"ops\":[$CONFLICT_OP,$CONFLICT_OP]}" "$COORD/eco")"
[[ "$CODE" == "400" ]] && grep -q 'moved off net' "$WORK/conflict.json" \
  || fail "self-conflicting batch answered $CODE $(cat "$WORK/conflict.json"), want 400"
HEALTH="$(curl -sf "$COORD/healthz")" || fail "GET /healthz after the refused batch"
grep -q '"status":"ok"' <<<"$HEALTH" && [[ "$(grep -o '"state":"alive"' <<<"$HEALTH" | wc -l)" -eq 2 ]] \
  || fail "the refused batch degraded the cluster: $HEALTH"
echo "cluster smoke: self-conflicting batch refused 400, both workers still alive"

curl -sf -d "{\"ops\":[$OP_JSON]}" "$COORD/eco" >"$WORK/eco1.json" || fail "POST /eco"
grep -q '"committed":true' "$WORK/eco1.json" || fail "barrier eco not committed"
grep -q '"epoch":1' "$WORK/eco1.json" || fail "barrier eco epoch did not advance"
echo "cluster smoke: epoch-barrier ECO committed at epoch 1"

# The same ECO on the single node, and /triage compared once more: both
# sides now render from key tables and walkers kept across an epoch.
curl -sf -d "{\"ops\":[$OP_JSON]}" "http://$SN_ADDR/eco" >/dev/null || fail "single-node POST /eco"
curl -sf "http://$SN_ADDR/triage" >"$WORK/triage_single1.json" || fail "single-node GET /triage at epoch 1"
curl -sf "$COORD/triage" >"$WORK/triage_cluster1.json" || fail "cluster GET /triage at epoch 1"
grep -q '^{"epoch":1,' "$WORK/triage_single1.json" || fail "single-node /triage not at epoch 1"
cmp "$WORK/triage_single1.json" "$WORK/triage_cluster1.json" \
  || fail "/triage diverges between single node and 2-shard cluster after the ECO"
same_read "$PATHS_Q" paths1
same_read "$ENDPOINTS_Q" endpoints1
grep -q '^{"epoch":1,' "$WORK/cluster.endpoints1" || fail "cluster /endpoints not at epoch 1"
kill "$SNPID"; wait "$SNPID" 2>/dev/null || true
unset SNPID
echo "cluster smoke: /triage, /paths and /endpoints byte-identical across the ECO too"

# Eight readers loop on /slack in the background until told to stop, then
# kill -9 a worker under them: the cluster must degrade, not die. answered
# counts the reads so far, so "before" and "after" the kill are observed,
# not slept for. Reads only: a what-if landing between the kill and the
# eviction rightly answers 502, which no fixed expectation covers.
for c in $(seq 1 8); do
  (
    until [[ -e "$WORK/stop" ]]; do
      curl -s -o /dev/null -w '%{http_code}\n' "$COORD/slack" || true
    done >"$WORK/reads.$c"
  ) &
  READER_PIDS+=($!)
done
answered() { cat "$WORK"/reads.* | wc -l; }
# wait_answered N DESC: until the readers have N answers between them.
wait_answered() {
  for i in $(seq 1 100); do
    [[ "$(answered)" -ge "$1" ]] && return 0
    sleep 0.1
  done
  fail "timed out waiting for $2"
}
wait_answered 40 "background reads before the kill"
kill -9 "$W2PID"; wait "$W2PID" 2>/dev/null || true
unset W2PID
wait_until "$COORD/healthz" '"degraded":true' "dead-worker eviction" 50

curl -sf "$COORD/slack" >"$WORK/slackdeg.json" || fail "degraded GET /slack"
grep -q '"degraded":true' "$WORK/slackdeg.json" || fail "degraded slack not flagged"
grep -q "\"stale\":\[\"$W2_SCEN\"\]" "$WORK/slackdeg.json" || fail "stale scenario not reported"
for route in eco whatif eco; do
  CODE="$(curl -s -o /dev/null -w '%{http_code}' -d "{\"ops\":[$OP_JSON]}" "$COORD/$route")"
  [[ "$CODE" == "503" ]] || fail "/$route against degraded cluster answered $CODE, want 503"
done
wait_answered "$(( $(answered) + 40 ))" "background reads after the eviction"
touch "$WORK/stop"
wait "${READER_PIDS[@]}"
READER_PIDS=()
BAD="$(cat "$WORK"/reads.* | grep -vx 200 | sort | uniq -c || true)"
[[ -z "$BAD" ]] || fail "background /slack across the kill got answers other than 200: $BAD"
echo "cluster smoke: $(answered) reads across the kill all answered 200, writes refused 503"

# Restart the dead worker from the same pack (epoch 0): registration
# replays the barrier oplog, reconverging it to the cluster epoch.
"$BIN" -addr "$W2_ADDR" -role worker -restore "$PACK" -join "$COORD" \
  -scenarios "$W2_SCEN" -heartbeat 100ms >"$WORK/w2b.log" 2>&1 &
W2PID=$!
wait_until "$COORD/healthz" '"status":"ok"' "worker rejoin" 150
curl -s "$COORD/healthz" | grep -q '"degraded":false' || fail "cluster still degraded after rejoin"

# Post-rejoin barrier: both shards commit, epoch 2 everywhere.
curl -sf -d "{\"ops\":[$OP_JSON]}" "$COORD/eco" >"$WORK/eco2.json" || fail "POST /eco after rejoin"
grep -q '"committed":true' "$WORK/eco2.json" || fail "post-rejoin eco not committed"
grep -q '"epoch":2' "$WORK/eco2.json" || fail "post-rejoin eco epoch wrong"
curl -sf "$COORD/slack" >"$WORK/slack2.json" || fail "GET /slack after rejoin"
grep -q '"epoch":2' "$WORK/slack2.json" || fail "merged slack not at epoch 2"
grep -q '"degraded":true' "$WORK/slack2.json" && fail "merged slack degraded after reconvergence"
echo "cluster smoke: worker rejoined, oplog replayed, epoch 2 committed everywhere"

echo "cluster smoke OK"
