package timingd

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"newgame/internal/obs"
	"newgame/internal/serve"
)

// findSpan walks a span forest depth-first for a span named name.
func findSpan(nodes []obs.SpanNode, name string) *obs.SpanNode {
	for i := range nodes {
		if nodes[i].Name == name {
			return &nodes[i]
		}
		if n := findSpan(nodes[i].Children, name); n != nil {
			return n
		}
	}
	return nil
}

// Every response carries an X-Trace-Id: minted when the client sends none,
// echoed verbatim when it does, and the plain (untraced) body stays the
// ordinary report — no trace envelope.
func TestTraceIDEchoedOnEveryResponse(t *testing.T) {
	_, hs := newTestServer(t, nil)

	resp, err := http.Get(hs.URL + "/slack")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Trace-Id")
	if minted == "" {
		t.Fatal("no X-Trace-Id minted on a plain request")
	}

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/slack", nil)
	req.Header.Set("X-Trace-Id", "deadbeefcafe0001")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "deadbeefcafe0001" {
		t.Fatalf("client trace ID not echoed: got %q", got)
	}
	var rep SlackReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("untraced body is not the plain report: %+v", rep)
	}
}

// ?debug=trace wraps the answer in a TraceReport: the trace ID matches the
// response header, the span tree is rooted at the route span with the
// render (and, through the context, sta) spans nested inside, and the
// original response rides along unchanged.
func TestDebugTraceReturnsSpanTree(t *testing.T) {
	_, hs := newTestServer(t, nil)
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/slack?debug=trace", nil)
	req.Header.Set("X-Trace-Id", "feedface00000042")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("traced request answered %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "feedface00000042" {
		t.Fatalf("traced request header = %q", got)
	}
	var tr TraceReport
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != "feedface00000042" {
		t.Fatalf("body trace_id %q disagrees with header", tr.TraceID)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "timingd.slack" {
		t.Fatalf("span forest not rooted at the route span: %+v", tr.Spans)
	}
	render := findSpan(tr.Spans, "render")
	if render == nil {
		t.Fatal("cold traced query has no render span")
	}
	if render.DurUs <= 0 {
		t.Fatalf("render span has no duration: %+v", render)
	}
	var rep SlackReport
	if err := json.Unmarshal(tr.Response, &rep); err != nil {
		t.Fatalf("inline response does not parse: %v", err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("inline response shape: %+v", rep)
	}

	// A second traced request hits the query cache: the envelope is fresh
	// (this request's spans), so there is no render child — the trace
	// truthfully shows the request did no rendering work.
	code, b := get(t, hs.URL, "/slack?debug=trace")
	if code != 200 {
		t.Fatalf("second traced request answered %d", code)
	}
	var tr2 TraceReport
	if err := json.Unmarshal(b, &tr2); err != nil {
		t.Fatal(err)
	}
	if findSpan(tr2.Spans, "render") != nil {
		t.Fatal("cache-hit trace claims a render span")
	}
	if tr2.TraceID == tr.TraceID {
		t.Fatal("second request reused the first trace ID")
	}
}

// A traced ECO's span tree reaches through the writer into the sta layer:
// the commit span carries the context-propagated sta.update (or sta.run)
// spans recorded during re-timing.
func TestTracedECOCarriesSTASpans(t *testing.T) {
	_, hs := newTestServer(t, nil)
	cell, to := resizeTarget(t)
	code, b := post(t, hs.URL, "/eco?debug=trace", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != 200 {
		t.Fatalf("traced eco answered %d: %s", code, b)
	}
	var tr TraceReport
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	commit := findSpan(tr.Spans, "commit")
	if commit == nil {
		t.Fatalf("traced eco has no commit span: %+v", tr.Spans)
	}
	sta := findSpan(tr.Spans, "sta.update")
	if sta == nil {
		sta = findSpan(tr.Spans, "sta.run")
	}
	if sta == nil {
		t.Fatal("traced eco recorded no sta-level span — context not threaded through retime")
	}
	if _, ok := sta.Args["nodes_relaxed"]; !ok {
		t.Fatalf("sta span missing run stats args: %+v", sta.Args)
	}
	var rep WhatIfReport
	if err := json.Unmarshal(tr.Response, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("traced eco inline response: %+v", rep)
	}
}

// The flight recorder captures every request: /debug/requests returns the
// recent ones newest-first with route, trace ID, epoch, cache outcome,
// status and latency filled in.
func TestDebugRequestsRecordsTraffic(t *testing.T) {
	_, hs := newTestServer(t, nil)
	get(t, hs.URL, "/slack")        // miss
	get(t, hs.URL, "/slack")        // hit
	get(t, hs.URL, "/paths?k=zero") // 400
	code, b := get(t, hs.URL, "/debug/requests")
	if code != 200 {
		t.Fatalf("/debug/requests answered %d", code)
	}
	var rep serve.DebugRequestsReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Requests) != 3 {
		t.Fatalf("recorded %d requests, want 3", len(rep.Requests))
	}
	// Newest first: the 400, then the hit, then the miss.
	if rep.Requests[0].Route != "paths" || rep.Requests[0].Status != 400 {
		t.Fatalf("newest record: %+v", rep.Requests[0])
	}
	if rep.Requests[1].Cache != "hit" || rep.Requests[2].Cache != "miss" {
		t.Fatalf("cache outcomes: %q then %q", rep.Requests[2].Cache, rep.Requests[1].Cache)
	}
	for _, r := range rep.Requests[1:] {
		if r.Route != "slack" || r.Status != 200 || r.Epoch != 0 {
			t.Fatalf("slack record: %+v", r)
		}
		if r.TraceID == "" || r.LatencyMs < 0 {
			t.Fatalf("degenerate record: %+v", r)
		}
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped %d records under no contention", rep.Dropped)
	}

	// ?limit= caps the answer, still newest-first.
	code, b = get(t, hs.URL, "/debug/requests?limit=1")
	if code != 200 {
		t.Fatal("limited /debug/requests failed")
	}
	var lim serve.DebugRequestsReport
	if err := json.Unmarshal(b, &lim); err != nil {
		t.Fatal(err)
	}
	// The /debug/requests call above was itself not recorded (debug routes
	// bypass handle()), so the newest is still the paths 400.
	if len(lim.Requests) != 1 || lim.Requests[0].Route != "paths" {
		t.Fatalf("limit=1 answer: %+v", lim.Requests)
	}
}

// An ECO leaves a commit record with the per-phase audit timeline:
// resolve, apply (edit + re-time) and swap (the epoch publish, with the cache
// purge count) durations that add up inside the total. Nothing is replayed.
func TestDebugEpochsAuditsCommitPhases(t *testing.T) {
	_, hs := newTestServer(t, nil)
	get(t, hs.URL, "/slack") // populate the cache so the swap purges something
	cell, to := resizeTarget(t)
	code, b := post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != 200 {
		t.Fatalf("eco answered %d: %s", code, b)
	}
	code, b = get(t, hs.URL, "/debug/epochs")
	if code != 200 {
		t.Fatalf("/debug/epochs answered %d", code)
	}
	var rep DebugEpochsReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Commits) != 1 {
		t.Fatalf("recorded %d commits, want 1", len(rep.Commits))
	}
	cr := rep.Commits[0]
	if cr.Epoch != 1 || cr.OpsApplied != 1 || cr.Err != "" {
		t.Fatalf("commit record: %+v", cr)
	}
	if cr.CachePurged < 1 {
		t.Fatalf("swap purged %d cache entries, want >= 1", cr.CachePurged)
	}
	// Apply covers the one re-time, real STA work with a non-zero
	// duration; a commit is applied once, so replay stays 0; the phases
	// must fit inside the total.
	if cr.ApplyMs <= 0 || cr.ReplayMs != 0 {
		t.Fatalf("phase durations: apply=%v (want > 0) replay=%v (want 0)", cr.ApplyMs, cr.ReplayMs)
	}
	if cr.ResolveMs < 0 || cr.SwapMs < 0 {
		t.Fatalf("negative phase durations: %+v", cr)
	}
	if sum := cr.ResolveMs + cr.ApplyMs + cr.SwapMs + cr.ReplayMs; sum > cr.TotalMs+0.001 {
		t.Fatalf("phases (%v ms) exceed total (%v ms)", sum, cr.TotalMs)
	}

	// A rejected commit is audited too, with its error.
	post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: "no_such_cell", To: to}))
	_, b = get(t, hs.URL, "/debug/epochs")
	var rep2 DebugEpochsReport
	if err := json.Unmarshal(b, &rep2); err != nil {
		t.Fatal(err)
	}
	if len(rep2.Commits) != 2 {
		t.Fatalf("failed commit not audited: %d records", len(rep2.Commits))
	}
	if rep2.Commits[0].Err == "" || rep2.Commits[0].Epoch != 0 {
		t.Fatalf("failed-commit record: %+v", rep2.Commits[0])
	}
}

// /debug/slow filters by latency threshold: everything at 0ms, nothing at
// an absurd threshold, 400 on garbage.
func TestDebugSlowThresholdFilter(t *testing.T) {
	_, hs := newTestServer(t, nil)
	get(t, hs.URL, "/slack")
	get(t, hs.URL, "/paths?k=2")

	code, b := get(t, hs.URL, "/debug/slow?threshold_ms=0")
	if code != 200 {
		t.Fatalf("/debug/slow answered %d", code)
	}
	var rep serve.DebugSlowReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ThresholdMs != 0 || len(rep.Requests) != 2 {
		t.Fatalf("threshold 0 returned %d of 2 requests (threshold %v)", len(rep.Requests), rep.ThresholdMs)
	}
	code, b = get(t, hs.URL, "/debug/slow?threshold_ms=1e9")
	if code != 200 {
		t.Fatal("huge threshold rejected")
	}
	var none serve.DebugSlowReport
	if err := json.Unmarshal(b, &none); err != nil {
		t.Fatal(err)
	}
	if len(none.Requests) != 0 {
		t.Fatalf("threshold 1e9 matched %d requests", len(none.Requests))
	}
	if code, _ = get(t, hs.URL, "/debug/slow?threshold_ms=fast"); code != 400 {
		t.Fatalf("garbage threshold answered %d", code)
	}
}

// promSample matches one exposition line: name{optional labels} value.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// /metrics?format=prom serves valid Prometheus text exposition: every line
// is a comment or a sample, counters carry _total, histograms emit
// cumulative buckets with +Inf, and the per-route request series from the
// traffic above are present.
func TestMetricsPromFormat(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) { c.Obs = obs.NewRecorder() })
	get(t, hs.URL, "/slack")
	get(t, hs.URL, "/slack")
	get(t, hs.URL, "/paths?k=zero") // one error to populate the error counter

	resp, err := http.Get(hs.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("prom metrics answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
	}
	for _, want := range []string{
		"timingd_slack_requests_total 2",
		"timingd_paths_errors_total 1",
		`timingd_slack_latency_ms_bucket{le="+Inf"} 2`,
		"timingd_slack_latency_ms_count 2",
		"# TYPE timingd_slack_latency_ms histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// The JSON dump stays the default.
	resp2, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default metrics content type %q", ct)
	}
}

// /healthz reports the operator dashboard fields: served epoch, degraded
// flag, uptime and flight-recorder occupancy against capacity.
func TestHealthzReportsEpochAndFlightState(t *testing.T) {
	_, hs := newTestServer(t, nil)
	get(t, hs.URL, "/slack")
	cell, to := resizeTarget(t)
	post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))

	code, b := get(t, hs.URL, "/healthz")
	if code != 200 {
		t.Fatalf("healthz answered %d", code)
	}
	var h Health
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Degraded {
		t.Fatalf("health status: %+v", h)
	}
	if h.Epoch != 1 {
		t.Fatalf("health epoch %d after one commit", h.Epoch)
	}
	if h.UptimeSec <= 0 {
		t.Fatalf("uptime %v", h.UptimeSec)
	}
	if h.FlightRequestsCap != flightRequests || h.FlightCommitsCap != flightCommits {
		t.Fatalf("flight caps: %+v", h)
	}
	if h.FlightRequests != 2 || h.FlightCommits != 1 {
		t.Fatalf("flight occupancy: requests=%d commits=%d", h.FlightRequests, h.FlightCommits)
	}
}
