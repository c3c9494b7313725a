#!/usr/bin/env bash
# Snapshot the hot-path benchmark pairs into a per-commit JSON record:
# BENCH_<sha>.json maps each benchmark name to its ns/op, B/op and
# allocs/op as measured with -benchmem. The pairs cover the SoA STA core
# (full Run serial/parallel, incremental vs full retime, MCMM survey warm
# and cold, net delay calc), the resident daemon's query surface
# (BenchmarkTimingdQuery sub-benches), and the snapshot-pack boot pair
# (text-parse cold boot vs pack restore).
#
# Usage: scripts/bench_snapshot.sh [out.json]
#   out.json defaults to BENCH_<short-sha>.json in the repo root.
#   BENCHTIME overrides -benchtime (default 1x: a CI freshness smoke;
#   use e.g. BENCHTIME=2s for numbers worth comparing).
set -euo pipefail
cd "$(dirname "$0")/.."

SHA="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
OUT="${1:-BENCH_${SHA}.json}"
BT="${BENCHTIME:-1x}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

PAIRS='^(BenchmarkSTARunSerial|BenchmarkSTARunParallel|BenchmarkIncrementalRetime|BenchmarkFullRetime|BenchmarkMCMMSurveySerial|BenchmarkMCMMSurveyParallel|BenchmarkMCMMSurveyColdSerial|BenchmarkMCMMSurveyColdParallel|BenchmarkNetDelayCalc)$'
go test -run='^$' -bench "$PAIRS" -benchmem -benchtime "$BT" . | tee "$RAW"
go test -run='^$' -bench '^(BenchmarkTimingdQuery|BenchmarkBootTextParse|BenchmarkBootPackRestore)$' -benchmem -benchtime "$BT" ./internal/timingd/ | tee -a "$RAW"

awk -v sha="$SHA" '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")     ns = $(i-1)
      if ($i == "B/op")      bytes = $(i-1)
      if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (n++) body = body ",\n"
    body = body "    \"" name "\": {\"ns_per_op\": " ns \
      ", \"bytes_per_op\": " (bytes == "" ? "null" : bytes) \
      ", \"allocs_per_op\": " (allocs == "" ? "null" : allocs) "}"
  }
  END {
    printf "{\n  \"commit\": \"%s\",\n  \"benchmarks\": {\n%s\n  }\n}\n", sha, body
  }
' "$RAW" >"$OUT"

echo "bench snapshot: $(grep -c ns_per_op "$OUT") benchmarks -> $OUT"
