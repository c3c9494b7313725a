package timingd

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

func TestTriageReport(t *testing.T) {
	_, hs := newTestServer(t, nil)
	code, b := get(t, hs.URL, "/triage")
	if code != 200 {
		t.Fatalf("/triage answered %d: %s", code, b)
	}
	var rep TriageReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Scenarios != 2 {
		t.Fatalf("stats cover %d scenarios, want 2", rep.Stats.Scenarios)
	}
	if len(rep.Clusters) == 0 || rep.Stats.Violations == 0 {
		t.Fatalf("fixture produced no clustered violations: %+v", rep.Stats)
	}
	total := 0
	for i, c := range rep.Clusters {
		if c.ID != i+1 || c.DominantScenario == "" || c.DominantSegment == "" {
			t.Fatalf("malformed cluster: %+v", c)
		}
		if i > 0 && rep.Clusters[i-1].TNS > c.TNS {
			t.Fatal("clusters not ranked by TNS")
		}
		for _, v := range c.Violations {
			if v.Slack >= 0 || len(v.Segments) == 0 {
				t.Fatalf("malformed violation: %+v", v)
			}
			total++
		}
	}
	if total != rep.Stats.Violations {
		t.Fatalf("clusters hold %d violations, stats claim %d", total, rep.Stats.Violations)
	}
	if rep.Stats.AnalyzedPairs != total {
		// OldGoalPosts' two corners use different libraries, so nothing is
		// delay-identical and nothing may be pruned.
		t.Fatalf("analyzed %d pairs for %d violations with no dominance", rep.Stats.AnalyzedPairs, total)
	}
}

func TestTriageExtract(t *testing.T) {
	_, hs := newTestServer(t, nil)
	code, b := get(t, hs.URL, "/triage/extract?scenario=func_ff_cb")
	if code != 200 {
		t.Fatalf("/triage/extract answered %d: %s", code, b)
	}
	var ex TriageExtract
	if err := json.Unmarshal(b, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Scenario != "func_ff_cb" || len(ex.Violations) == 0 || ex.AnalyzedPairs == 0 {
		t.Fatalf("extract shape: %+v", ex.ScenarioExtract)
	}
	if code, b := get(t, hs.URL, "/triage/extract?scenario=nope"); code != 400 {
		t.Fatalf("unknown scenario answered %d: %s", code, b)
	}
	if code, _ := get(t, hs.URL, "/triage?window=bogus"); code != 400 {
		t.Fatalf("bad window answered %d", code)
	}
}

// TestTriageCacheEpochScoped: repeated /triage queries hit the epoch-
// scoped cache, and an ECO commit purges them — the next query re-renders
// against the new epoch.
func TestTriageCacheEpochScoped(t *testing.T) {
	s, hs := newTestServer(t, nil)
	_, before := get(t, hs.URL, "/triage")
	get(t, hs.URL, "/triage")
	hits, misses := s.cache.Stats()
	if hits < 1 {
		t.Fatalf("no cache hit after repeat /triage (hits=%d misses=%d)", hits, misses)
	}
	cell, to := resizeTarget(t)
	post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	_, afterMisses0 := s.cache.Stats()
	_, after := get(t, hs.URL, "/triage")
	_, afterMisses1 := s.cache.Stats()
	if afterMisses1 != afterMisses0+1 {
		t.Fatalf("post-commit /triage did not miss (misses %d -> %d)", afterMisses0, afterMisses1)
	}
	var repBefore, repAfter TriageReport
	if err := json.Unmarshal(before, &repBefore); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &repAfter); err != nil {
		t.Fatal(err)
	}
	if repAfter.Epoch != repBefore.Epoch+1 {
		t.Fatalf("post-commit epoch %d, want %d", repAfter.Epoch, repBefore.Epoch+1)
	}
}

// TestTriageDebugTrace: a traced cold /triage shows the render span; the
// cache-hit repeat truthfully shows none; X-Trace-Id is echoed.
func TestTriageDebugTrace(t *testing.T) {
	_, hs := newTestServer(t, nil)
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/triage?debug=trace", nil)
	req.Header.Set("X-Trace-Id", "feedface00000077")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("traced /triage answered %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "feedface00000077" {
		t.Fatalf("X-Trace-Id echo = %q", got)
	}
	var tr TraceReport
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != "feedface00000077" {
		t.Fatalf("body trace_id %q disagrees with header", tr.TraceID)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "timingd.triage" {
		t.Fatalf("span forest not rooted at the route span: %+v", tr.Spans)
	}
	render := findSpan(tr.Spans, "render")
	if render == nil || render.DurUs <= 0 {
		t.Fatalf("cold traced /triage missing render span: %+v", render)
	}
	var rep TriageReport
	if err := json.Unmarshal(tr.Response, &rep); err != nil {
		t.Fatalf("inline response does not parse: %v", err)
	}
	if rep.Stats.Scenarios != 2 {
		t.Fatalf("inline response shape: %+v", rep.Stats)
	}

	code, b := get(t, hs.URL, "/triage?debug=trace")
	if code != 200 {
		t.Fatalf("second traced /triage answered %d", code)
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

// TestTriageBackpressure429: /triage goes through the same bounded
// admission queue as every query route.
func TestTriageBackpressure429(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) {
		c.QueryWorkers = 1
		c.QueueDepth = 1
	})
	release := make(chan struct{})
	started := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-release }) {
		t.Fatal("could not pin the worker")
	}
	<-started
	if !s.pool.TrySubmit(func() {}) {
		t.Fatal("could not fill the queue slot")
	}
	resp, err := http.Get(hs.URL + "/triage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /triage answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := get(t, hs.URL, "/triage")
		if code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not recover after drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTriageTimeout504(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) {
		c.RequestTimeout = time.Nanosecond
	})
	code, _ := get(t, hs.URL, "/triage")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out /triage answered %d, want 504", code)
	}
}
