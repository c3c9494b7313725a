package timingd

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"newgame/internal/circuits"
	"newgame/internal/obs"
	"newgame/internal/serve"
	"newgame/internal/sta"
	"newgame/internal/triage"
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

// TestTriageExtract: /triage/extract answers every scenario asked, in the
// order asked, from one session read — one pack/wire reply at one epoch,
// each extract the one a request for that scenario alone answers — and
// refuses an unknown name before rendering any.
func TestTriageExtract(t *testing.T) {
	s, hs := newTestServer(t, nil)
	one := func(target string) (int64, []triage.ScenarioExtract) {
		t.Helper()
		resp, err := http.Get(hs.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/octet-stream" {
			t.Fatalf("%s answered %d %s: %.200s", target, resp.StatusCode, resp.Header.Get("Content-Type"), b)
		}
		epoch, exs, err := triage.DecodeExtracts(b)
		if err != nil {
			t.Fatal(err)
		}
		return epoch, exs
	}
	names := []string{s.cfg.Recipe.Scenarios[1].Name, s.cfg.Recipe.Scenarios[0].Name}
	epoch, exs := one("/triage/extract?scenario=" + names[0] + "&scenario=" + names[1])
	if epoch != 0 || len(exs) != 2 {
		t.Fatalf("epoch %d, %d extracts", epoch, len(exs))
	}
	if len(exs[0].Violations) == 0 || exs[0].AnalyzedPairs == 0 {
		t.Fatalf("%s extracted no violation: %+v", names[0], exs[0])
	}
	for i, name := range names {
		if exs[i].Scenario != name {
			t.Fatalf("extract %d is %s's, want %s's", i, exs[i].Scenario, name)
		}
		_, alone := one("/triage/extract?scenario=" + name)
		if !reflect.DeepEqual(alone, exs[i:i+1]) {
			t.Errorf("%s asked alone differs from %s asked in a leg", name, name)
		}
	}
	if code, b := get(t, hs.URL, "/triage/extract?scenario="+names[0]+"&scenario=nope"); code != 400 {
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

// TestTriageAllocations: what /triage renders — one extraction per scenario
// and the merge — allocates per violation, not per path step, and at a fresh
// epoch a small multiple of the body it encodes, as /paths does: the walkers,
// the segment-key table and the merge's scratch are the session's, kept
// across renders and epochs, so a render at a netlist the table has seen
// builds no key. And /endpoints reads its rows off the resident list without
// copying the list.
func TestTriageAllocations(t *testing.T) {
	rec := obs.NewRecorder()
	s, _ := newTestServer(t, func(c *Config) {
		c.Design = circuits.Block(c.Recipe.Scenarios[0].Lib, circuits.BlockSpec{
			Name: "tri", Inputs: 16, Outputs: 16, FFs: 96, Gates: 900,
			MaxDepth: 12, Seed: 11, ClockBufferLevels: 2,
			VtMix: [3]float64{0, 0.5, 0.5},
		})
		c.BasePeriod = 480
		c.Obs = rec
	})
	sess := s.sess
	opts := triage.Options{K: 3, Window: 10}
	var rep TriageReport
	render := func() {
		sess.mu.RLock()
		defer sess.mu.RUnlock()
		rep = s.triageReport(sess, s.Epoch(), opts)
	}
	n := testing.AllocsPerRun(5, render)
	if rep.Stats.Violations < 100 || rep.Stats.AnalyzedPairs != rep.Stats.Violations {
		t.Fatalf("fixture too small to say anything: %+v", rep.Stats)
	}
	t.Logf("triage: %v allocs, %+v, per %.2f", n, rep.Stats, n/float64(rep.Stats.Violations))
	if per := n / float64(rep.Stats.Violations); per > 16 {
		t.Errorf("triage allocates %.1f objects per violation (%v for %d), want at most 16", per, n, rep.Stats.Violations)
	}

	// A resize on the worst path and its undo: epoch + 2 is the netlist the
	// table was filled at, and its render builds no key.
	cell, from, to := criticalResize(t, s)
	ctx := context.Background()
	commit := func(to string) {
		t.Helper()
		if _, err := s.commit(ctx, []Op{{Kind: "resize", Cell: cell, To: to}}); err != nil {
			t.Fatal(err)
		}
	}
	keys, walked := rec.Counter("triage.segment_keys_built"), rec.Counter("triage.paths_walked")
	commit(to)
	commit(from)
	k0, w0 := keys.Value(), walked.Value()
	render()
	if k, w := keys.Value()-k0, walked.Value()-w0; k != 0 || w < int64(rep.Stats.AnalyzedPairs) {
		t.Errorf("render after a resize and its undo built %d keys and walked %d paths for %d analyzed pairs, want 0 keys and a path per pair",
			k, w, rep.Stats.AnalyzedPairs)
	}

	// Bytes per render against the body it encodes, at fresh epochs: every
	// commit re-times each scenario and keeps the topology. Not measured
	// after a GC, which would empty encoding/json's encoder pool and charge
	// its refill to the render. The least of three passes, each of eight
	// commits that end at the netlist it began at.
	tr, pr := math.Inf(1), math.Inf(1)
	for range 3 {
		var triageBytes, triageBody, pathsBytes, pathsBody uint64
		for i := 0; i < 8; i++ {
			commit([2]string{to, from}[i%2])
			var b []byte
			sess.mu.RLock()
			triageBytes += allocBytes(func() { b, _ = serve.JSON(s.triageReport(sess, s.Epoch(), opts)) })
			triageBody += uint64(len(b))
			pathsBytes += allocBytes(func() { b, _ = serve.JSON(sess.pathsReport(s.Epoch(), 0, sta.Setup, 10)) })
			pathsBody += uint64(len(b))
			sess.mu.RUnlock()
		}
		tr, pr = min(tr, float64(triageBytes)/float64(triageBody)), min(pr, float64(pathsBytes)/float64(pathsBody))
		t.Logf("per render at a fresh epoch: /triage %d B for a %d B body, /paths?k=10 %d B for %d B",
			triageBytes/8, triageBody/8, pathsBytes/8, pathsBody/8)
	}
	t.Logf("least of three passes: /triage %.2f×, /paths?k=10 %.2f× the body", tr, pr)
	// The race runtime drops a share of sync.Pool puts, so encoding/json
	// re-grows its encoder buffers on most renders: the byte budgets hold
	// only without the race detector.
	if raceEnabled {
		t.Log("race detector on: byte budgets not checked")
	}
	if !raceEnabled && tr > triageBodyBudget {
		t.Errorf("/triage allocates %.2f× its body, want at most %v×", tr, triageBodyBudget)
	}
	if !raceEnabled && pr > pathsBodyBudget {
		t.Errorf("/paths allocates %.2f× its body, want at most %v×", pr, pathsBodyBudget)
	}

	a := sess.views.Analyzers()[0]
	resident := a.Summary(sta.Setup).Endpoints
	if resident < 40 {
		t.Fatalf("fixture has %d setup checks, too few to tell a copy from a prefix", resident)
	}
	var rows []EndpointReport
	few := testing.AllocsPerRun(20, func() { rows = endpoints(a, sta.Setup, 5) })
	if len(rows) != 5 {
		t.Fatalf("endpoints(…, 5) returned %d rows", len(rows))
	}
	least := func(fn func()) uint64 { return min(allocBytes(fn), allocBytes(fn), allocBytes(fn)) }
	bytesFew := least(func() { rows = endpoints(a, sta.Setup, 5) })
	bytesAll := least(func() { rows = endpoints(a, sta.Setup, 0) })
	if len(rows) != resident {
		t.Fatalf("endpoints(…, 0) returned %d rows of %d", len(rows), resident)
	}
	t.Logf("endpoints: few %v allocs %d bytes, all %d bytes, resident %d", few, bytesFew, bytesAll, resident)
	if few > 2 || bytesFew*4 > bytesAll {
		t.Errorf("endpoints(…, 5) allocates %v objects / %d bytes against %d bytes for all %d rows: it pays for the whole resident list",
			few, bytesFew, bytesAll, resident)
	}
}

// The byte budgets of a render at a fresh epoch, as multiples of the body it
// encodes (TestTriageAllocations). On this fixture a session that keeps its
// scratch measures 2.7–3.0× and 3.6×; rebuilding the scratch per render
// costs 6.7–7.0× and 7.8×.
const (
	triageBodyBudget = 4.5
	pathsBodyBudget  = 5.5
)

// criticalResize finds a Vt swap for a combinational cell on scenario 0's
// worst setup paths, so that a commit of it moves the paths triage walks.
func criticalResize(t *testing.T, s *Server) (cell, from, to string) {
	t.Helper()
	lib := s.cfg.Recipe.Scenarios[0].Lib
	for _, p := range s.sess.views.Analyzers()[0].WorstPaths(sta.Setup, 10) {
		for _, st := range p.Steps {
			if st.Cell == nil || !strings.HasSuffix(st.Cell.TypeName, "_SVT") {
				continue
			}
			lvt := strings.TrimSuffix(st.Cell.TypeName, "_SVT") + "_LVT"
			if m := lib.Cell(st.Cell.TypeName); m != nil && !m.IsSequential() && lib.Cell(lvt) != nil {
				return st.Cell.Name, st.Cell.TypeName, lvt
			}
		}
	}
	t.Fatal("no resize target on the worst paths")
	return "", "", ""
}

// allocBytes is the heap fn allocates, in bytes. The counter is the
// process's, so other goroutines' bytes add to it: a check takes the least of
// three repeats of deterministic work, which is that work's own.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// stepNames copies a path's step names, which outlive its walker's next call.
func stepNames(p sta.Path) []string {
	names := make([]string, len(p.Steps))
	for i, st := range p.Steps {
		names[i] = st.Name
	}
	return names
}

// /triage takes each violation's Depth, Pessimism and ClockPair from the
// endpoint's GBA worst path, on both sides; the k-worst enumeration supplies
// only the segments. Under LVF the enumeration ranks paths by mean arrival,
// so on the benchmark's node its first path is not always the GBA one: in
// func_ssg_cw_cold, ff245/D's leads with a path 1.32 ps later by mean whose
// GBA slack is -6.69 ps, against the endpoint's -5.37. The fixture must keep
// such a violation for the test to say anything.
func TestTriageFeaturesFollowTheGBAPath(t *testing.T) {
	s, err := NewServer(socConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	opts := triage.Options{K: 3, Window: 10}
	sess := s.sess
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	checked, diverged := 0, 0
	for i, a := range sess.views.Analyzers() {
		ex := s.triageExtract(sess, i, opts)
		// Each violation is its endpoint's worst transition: the first
		// one a worst-first sweep meets.
		worst := map[string]sta.EndpointSlack{}
		for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
			a.EachEndpoint(kind, func(e sta.EndpointSlack) bool {
				if _, ok := worst[kind.String()+" "+e.Name()]; !ok {
					worst[kind.String()+" "+e.Name()] = e
				}
				return e.Slack < 0
			})
		}
		w := a.Walker()
		for _, v := range ex.Violations {
			if v.PrunedBy != "" {
				continue
			}
			e, ok := worst[v.Kind+" "+v.Endpoint]
			if !ok {
				t.Fatalf("%s: no %s endpoint %s", v.Scenario, v.Kind, v.Endpoint)
			}
			p := w.Worst(e)
			r := a.PBA(p)
			pess := r.GBAArrival - r.PBAArrival
			if e.Kind == sta.Hold {
				pess = -pess
			}
			want := [3]any{p.Depth(), pess, p.Steps[0].Name + ">" + a.Cons.DefaultClock().Name}
			if got := [3]any{v.Depth, v.Pessimism, v.ClockPair}; got != want {
				t.Errorf("%s %s %s: depth, pessimism, clock pair = %v, want the GBA path's %v", v.Scenario, v.Kind, v.Endpoint, got, want)
			}
			checked++
			if e.Kind == sta.Setup && !slices.Equal(stepNames(p), stepNames(w.Within(e, opts.Window, opts.K)[0])) {
				diverged++
			}
		}
	}
	if checked == 0 || diverged == 0 {
		t.Fatalf("fixture checks %d violations, %d of them led by another path than the GBA one; want some of each", checked, diverged)
	}
}
