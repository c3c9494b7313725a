#!/usr/bin/env bash
# CI smoke for the timingd daemon: start it on the example design, walk the
# query surface, commit an ECO and verify the re-queried baseline matches
# the commit's "after" exactly, push a concurrent burst of reads and
# what-ifs through it, then snapshot the state, hard-kill the daemon, and
# verify a -restore boot (snapshot + epoch-log replay) serves byte-identical
# answers, at the default scenario-worker count and again serially. Fails on any non-2xx answer, on a baseline mismatch, on a restore
# divergence, or when the burst gets a wrong answer or moves the baseline.
# It gates on no timing: throughput and latency are bench/'s to report.
set -euo pipefail

ADDR="127.0.0.1:18374"
BASE="http://$ADDR"
# Every scratch file lives here, so concurrent runs do not collide and
# nothing is left in /tmp or the checkout.
WORK="$(mktemp -d)"
LOG="$WORK/daemon.log"
BIN="$WORK/timingd"
SNAPDIR="$WORK/snap"

cleanup() {
  if [[ -n "${DPID:-}" ]] && kill -0 "$DPID" 2>/dev/null; then
    kill "$DPID" 2>/dev/null || true
    wait "$DPID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/timingd

"$BIN" -addr "$ADDR" -gates 900 -ffs 64 -snapshot-dir "$SNAPDIR" >"$LOG" 2>&1 &
DPID=$!

# Wait for the ready banner (full MCMM load, so allow a little time).
for i in $(seq 1 100); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$DPID" 2>/dev/null; then
    echo "timingd exited during startup:"; cat "$LOG"; exit 1
  fi
  sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null || { echo "daemon never became healthy"; cat "$LOG"; exit 1; }

# The startup banner prints a valid example op for this design.
OP_JSON="$(grep -o '{"op":.*}' "$LOG" | head -1)"
[[ -n "$OP_JSON" ]] || { echo "no example op in banner"; cat "$LOG"; exit 1; }
echo "smoke: using example op $OP_JSON"

fail() { echo "smoke FAILED: $1"; cat "$LOG"; exit 1; }

# Query surface: every answer must be 2xx.
curl -sf "$BASE/slack" >"$WORK/slack0.json" || fail "GET /slack"
curl -sf "$BASE/endpoints?kind=hold&limit=3" >/dev/null || fail "GET /endpoints"
curl -sf "$BASE/paths?k=2" >/dev/null || fail "GET /paths"
curl -sf "$BASE/metrics" >/dev/null || fail "GET /metrics"
curl -sf "$BASE/metrics?format=prom" >"$WORK/metrics.prom" || fail "GET /metrics?format=prom"
grep -q '^# TYPE ' "$WORK/metrics.prom" || fail "prom exposition has no TYPE lines"

# Trace identity: the response must echo a trace ID, and ?debug=trace must
# return the span tree inline.
TRACE_ID="$(curl -sf -D - -o /dev/null "$BASE/slack" | tr -d '\r' | sed -n 's/^X-Trace-Id: //p')"
[[ -n "$TRACE_ID" ]] || fail "no X-Trace-Id on response"
curl -sf "$BASE/slack?debug=trace" | grep -q '"spans":' || fail "?debug=trace has no span tree"

# What-if must not advance the epoch or perturb the baseline.
curl -sf -d "{\"ops\":[$OP_JSON]}" "$BASE/whatif" >"$WORK/whatif.json" || fail "POST /whatif"
curl -sf "$BASE/slack" >"$WORK/slack0b.json" || fail "GET /slack after whatif"
cmp -s "$WORK/slack0.json" "$WORK/slack0b.json" || fail "whatif perturbed the baseline"

# Concurrent burst, a fixed count and no clock: 8 clients × 20 rounds of
# GET /slack and GET /paths with a POST /whatif every 4th round. Every
# answer must be 200 (429 is legal backpressure), and forty what-ifs racing
# the reads must leave /slack byte-identical.
BURST_PIDS=()
for c in $(seq 1 8); do
  (
    for round in $(seq 1 20); do
      curl -s -o /dev/null -w '%{http_code}\n' "$BASE/slack" || true
      curl -s -o /dev/null -w '%{http_code}\n' "$BASE/paths?k=2" || true
      (( round % 4 )) || curl -s -o /dev/null -w '%{http_code}\n' \
        -d "{\"ops\":[$OP_JSON]}" "$BASE/whatif" || true
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
curl -sf "$BASE/slack" >"$WORK/slack0c.json" || fail "GET /slack after burst"
cmp -s "$WORK/slack0.json" "$WORK/slack0c.json" || fail "what-if burst perturbed the baseline"
echo "smoke: 360 concurrent requests, $(grep -cx 200 "$WORK/burst.codes") answered 200, baseline byte-identical"

# ECO commit: epoch advances, and the re-queried slack must equal the
# commit's reported "after" numbers exactly.
curl -sf -d "{\"ops\":[$OP_JSON]}" "$BASE/eco" >"$WORK/eco.json" || fail "POST /eco"
grep -q '"committed":true' "$WORK/eco.json" || fail "eco not committed"
grep -q '"epoch":1' "$WORK/eco.json" || fail "eco epoch did not advance"
curl -sf "$BASE/slack" >"$WORK/slack1.json" || fail "GET /slack after eco"
AFTER="$(sed -n 's/.*"after":\(\[.*\]\),"committed".*/\1/p' "$WORK/eco.json")"
NOW="$(sed -n 's/.*"scenarios":\(\[.*\]\)}/\1/p' "$WORK/slack1.json")"
[[ -n "$AFTER" && "$AFTER" == "$NOW" ]] || {
  echo "eco after:     $AFTER"
  echo "queried slack: $NOW"
  fail "post-eco baseline does not match the commit's after"
}

# The flight recorder must have audited the commit above with its phase
# timeline, and the request ring must be populated.
curl -sf "$BASE/debug/epochs" >"$WORK/epochs.json" || fail "GET /debug/epochs"
grep -q '"apply_ms":' "$WORK/epochs.json" || fail "commit record has no phase durations"
grep -q '"epoch":1' "$WORK/epochs.json" || fail "commit record missing epoch 1"
curl -sf "$BASE/debug/requests?limit=5" | grep -q '"route":' || fail "GET /debug/requests empty"
curl -sf "$BASE/debug/slow?threshold_ms=0" >/dev/null || fail "GET /debug/slow"

# Snapshot persistence: save a pack at epoch 1, commit a second ECO (only
# the epoch log records it), hard-kill the daemon, and boot a new one from
# the pack. Log replay must carry it to epoch 2 and /slack must come back
# byte-identical — the warm server is indistinguishable from the dead one.
curl -sf -X POST "$BASE/admin/save" >"$WORK/save.json" || fail "POST /admin/save"
SNAP_PATH="$(sed -n 's/.*"path":"\([^"]*\)".*/\1/p' "$WORK/save.json")"
[[ -f "$SNAP_PATH" ]] || fail "snapshot pack $SNAP_PATH not on disk"
curl -sf -d "{\"ops\":[$OP_JSON]}" "$BASE/eco" >/dev/null || fail "POST /eco (second)"
curl -sf "$BASE/slack" >"$WORK/slack2.json" || fail "GET /slack after second eco"
kill -9 "$DPID"; wait "$DPID" 2>/dev/null || true

# restore boots a daemon from the pack and the log, with any extra flags,
# and waits for it to answer.
restore() {
  "$BIN" -addr "$ADDR" -restore "$SNAP_PATH" -snapshot-dir "$SNAPDIR" "$@" >"$LOG" 2>&1 &
  DPID=$!
  for i in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$DPID" 2>/dev/null; then
      echo "restored timingd exited during startup:"; cat "$LOG"; exit 1
    fi
    sleep 0.2
  done
  grep -q "restored from" "$LOG" || fail "no restore banner"
}

# stop shuts the daemon down gracefully.
stop() {
  kill -TERM "$DPID"
  wait "$DPID" || fail "daemon exited nonzero on SIGTERM"
  grep -q "bye" "$LOG" || fail "no graceful shutdown marker"
  unset DPID
}

restore
curl -sf "$BASE/healthz" >"$WORK/health.json" || fail "GET /healthz after restore"
grep -q '"restored_from":' "$WORK/health.json" || fail "healthz has no restore provenance"
grep -q '"log_replayed":1' "$WORK/health.json" || fail "healthz did not count the replayed epoch"
curl -sf "$BASE/slack" >"$WORK/slack_restored.json" || fail "GET /slack after restore"
cmp -s "$WORK/slack2.json" "$WORK/slack_restored.json" || {
  echo "pre-kill:  $(cat "$WORK/slack2.json")"
  echo "restored:  $(cat "$WORK/slack_restored.json")"
  fail "restored /slack differs from the killed daemon's"
}
echo "smoke: restore from $SNAP_PATH verified byte-identical at epoch 2"
curl -sf "$BASE/triage" >"$WORK/triage_restored.json" || fail "GET /triage after restore"
stop

# Serial equals parallel in the real binary: the same pack and log restored
# with one scenario worker answer /slack and /triage byte for byte as the
# default-worker restore did.
restore -workers 1
curl -sf "$BASE/slack" >"$WORK/slack_serial.json" || fail "GET /slack after -workers 1 restore"
curl -sf "$BASE/triage" >"$WORK/triage_serial.json" || fail "GET /triage after -workers 1 restore"
cmp -s "$WORK/slack_restored.json" "$WORK/slack_serial.json" || fail "-workers 1 restore's /slack differs"
cmp -s "$WORK/triage_restored.json" "$WORK/triage_serial.json" || fail "-workers 1 restore's /triage differs"
echo "smoke: -workers 1 restore byte-identical on /slack and /triage"
stop
echo "smoke OK"
