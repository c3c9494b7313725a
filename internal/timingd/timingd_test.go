package timingd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/pack"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/triage"
	"newgame/internal/units"
)

// The test fixture is shared: library generation dominates setup cost, and
// every server clones the design anyway, so tests never interfere.
var (
	fixOnce   sync.Once
	fixRecipe core.Recipe
	fixStack  *parasitics.Stack
	fixDesign *netlist.Design
)

func fixture(t testing.TB) (core.Recipe, *parasitics.Stack, *netlist.Design) {
	t.Helper()
	fixOnce.Do(func() {
		fixStack = parasitics.Stack16()
		fixRecipe = core.OldGoalPosts(liberty.Node16, fixStack)
		fixDesign = circuits.Block(fixRecipe.Scenarios[0].Lib, circuits.BlockSpec{
			Name: "td", Inputs: 12, Outputs: 12, FFs: 32, Gates: 350,
			MaxDepth: 9, Seed: 7, ClockBufferLevels: 2,
			VtMix: [3]float64{0, 0.5, 0.5},
		})
	})
	return fixRecipe, fixStack, fixDesign
}

func testConfig(t testing.TB) Config {
	recipe, stack, d := fixture(t)
	return Config{
		Design: d, Recipe: recipe, Stack: stack,
		BasePeriod: 560, Seed: 7, QueryWorkers: 4,
	}
}

func newTestServer(t testing.TB, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := testConfig(t)
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func get(t testing.TB, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func post(t testing.TB, base, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// resizeTarget finds a combinational cell with an in-library Vt variant.
func resizeTarget(t testing.TB) (cell, to string) {
	t.Helper()
	recipe, _, d := fixture(t)
	lib := recipe.Scenarios[0].Lib
	for _, c := range d.Cells {
		m := lib.Cell(c.TypeName)
		if m == nil || m.IsSequential() {
			continue
		}
		if strings.HasSuffix(c.TypeName, "_SVT") {
			v := strings.TrimSuffix(c.TypeName, "_SVT") + "_LVT"
			if lib.Cell(v) != nil {
				return c.Name, v
			}
		}
	}
	t.Fatal("no resize target in fixture")
	return "", ""
}

// bufferTarget finds a cell-driven net with at least three loads.
func bufferTarget(t testing.TB) (net string, loads []string) {
	t.Helper()
	_, _, d := fixture(t)
	for _, n := range d.Nets {
		if n.Driver != nil && len(n.Loads) >= 3 {
			return n.Name, []string{n.Loads[0].FullName(), n.Loads[1].FullName()}
		}
	}
	t.Fatal("no buffer target in fixture")
	return "", nil
}

func opsJSON(ops ...Op) string {
	b, _ := json.Marshal(struct {
		Ops []Op `json:"ops"`
	}{ops})
	return string(b)
}

// Two independently built servers answer /slack byte-identically, and the
// answer carries epoch 0 — the determinism baseline everything else builds
// on.
func TestSlackDeterministicAcrossServers(t *testing.T) {
	_, hs1 := newTestServer(t, nil)
	_, hs2 := newTestServer(t, nil)
	c1, b1 := get(t, hs1.URL, "/slack")
	c2, b2 := get(t, hs2.URL, "/slack")
	if c1 != 200 || c2 != 200 {
		t.Fatalf("status %d/%d", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("independent servers disagree:\n%s\n%s", b1, b2)
	}
	var rep SlackReport
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 0 || len(rep.Scenarios) != 2 {
		t.Fatalf("unexpected report shape: epoch %d, %d scenarios", rep.Epoch, len(rep.Scenarios))
	}
}

// A what-if must leave the baseline untouched: /slack before and after the
// what-if are byte-identical, the epoch does not advance, and the what-if
// itself reports a changed "after".
func TestWhatIfLeavesBaselineUntouched(t *testing.T) {
	_, hs := newTestServer(t, nil)
	cell, to := resizeTarget(t)
	_, before := get(t, hs.URL, "/slack")
	code, wb := post(t, hs.URL, "/whatif", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != 200 {
		t.Fatalf("whatif status %d: %s", code, wb)
	}
	var rep WhatIfReport
	if err := json.Unmarshal(wb, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Committed || rep.Epoch != 0 {
		t.Fatalf("whatif committed=%v epoch=%d", rep.Committed, rep.Epoch)
	}
	if len(rep.After) == 0 {
		t.Fatal("whatif reported no after slacks")
	}
	_, after := get(t, hs.URL, "/slack")
	if !bytes.Equal(before, after) {
		t.Fatalf("whatif perturbed the baseline:\n%s\n%s", before, after)
	}
}

// ECO commit advances the epoch, the new /slack matches the commit's
// "after", and committing the inverse op restores the original numbers —
// the incremental epoch chain stays bit-exact in both directions.
func TestECOCommitAndRevert(t *testing.T) {
	_, hs := newTestServer(t, nil)
	cell, to := resizeTarget(t)
	recipe, _, d := fixture(t)
	_ = recipe
	oldType := d.Cell(cell).TypeName

	_, slack0 := get(t, hs.URL, "/slack")
	code, cb := post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != 200 {
		t.Fatalf("eco status %d: %s", code, cb)
	}
	var rep WhatIfReport
	if err := json.Unmarshal(cb, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("eco committed=%v epoch=%d", rep.Committed, rep.Epoch)
	}
	_, slack1 := get(t, hs.URL, "/slack")
	var s1 SlackReport
	if err := json.Unmarshal(slack1, &s1); err != nil {
		t.Fatal(err)
	}
	if s1.Epoch != 1 {
		t.Fatalf("post-commit slack epoch %d", s1.Epoch)
	}
	if fmt.Sprint(s1.Scenarios) != fmt.Sprint(rep.After) {
		t.Fatalf("post-commit slack differs from commit's after:\n%v\n%v", s1.Scenarios, rep.After)
	}
	// Revert and compare numbers (epoch tag differs, so compare bodies
	// with the epoch stripped).
	code, _ = post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: oldType}))
	if code != 200 {
		t.Fatal("revert eco failed")
	}
	_, slack2 := get(t, hs.URL, "/slack")
	var s0, s2 SlackReport
	if err := json.Unmarshal(slack0, &s0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(slack2, &s2); err != nil {
		t.Fatal(err)
	}
	if s2.Epoch != 2 {
		t.Fatalf("post-revert epoch %d", s2.Epoch)
	}
	if fmt.Sprint(s0.Scenarios) != fmt.Sprint(s2.Scenarios) {
		t.Fatalf("revert did not restore baseline:\n%v\n%v", s0.Scenarios, s2.Scenarios)
	}
}

// Structural what-if (buffer insertion) forces a view rebuild on a netlist
// copy and an exact undo; the baseline must survive byte-identically, and
// a structural ECO must keep serving consistently afterwards.
func TestBufferWhatIfAndECO(t *testing.T) {
	_, hs := newTestServer(t, nil)
	net, loads := bufferTarget(t)
	op := Op{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"}

	_, before := get(t, hs.URL, "/slack")
	code, wb := post(t, hs.URL, "/whatif", opsJSON(op))
	if code != 200 {
		t.Fatalf("buffer whatif status %d: %s", code, wb)
	}
	_, after := get(t, hs.URL, "/slack")
	if !bytes.Equal(before, after) {
		t.Fatal("structural whatif perturbed the baseline")
	}

	// Commit it for real, then keep using the server: reads, a resize
	// what-if, and a second commit must all still work on the rebuilt
	// views.
	code, cb := post(t, hs.URL, "/eco", opsJSON(op))
	if code != 200 {
		t.Fatalf("buffer eco status %d: %s", code, cb)
	}
	var rep WhatIfReport
	if err := json.Unmarshal(cb, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("buffer eco committed=%v epoch=%d", rep.Committed, rep.Epoch)
	}
	code, body := get(t, hs.URL, "/paths?k=2")
	if code != 200 {
		t.Fatalf("paths after structural eco: %d %s", code, body)
	}
	cell, to := resizeTarget(t)
	code, _ = post(t, hs.URL, "/whatif", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != 200 {
		t.Fatal("resize whatif after structural eco failed")
	}
	code, cb = post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != 200 {
		t.Fatalf("resize eco after structural eco: %d %s", code, cb)
	}
	var rep2 WhatIfReport
	if err := json.Unmarshal(cb, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Epoch != 2 {
		t.Fatalf("second eco epoch %d", rep2.Epoch)
	}
}

// A what-if mixing a resize with a buffer insertion must leave the session
// exactly as it found it: after an unrelated ECO the server answers byte for
// byte what a fresh server given only the ECO answers. (A rollback that
// restores analyzers saved before the edit keeps the resized cell's new
// master in their cache, and the ECO's incremental update then times it.)
func TestMixedWhatIfLeavesSessionExact(t *testing.T) {
	_, hs := newTestServer(t, nil)
	_, fresh := newTestServer(t, nil)
	u, uTo := resizeTarget(t)
	v, vTo := findResize(t, u)
	net, loads := bufferTarget(t)

	code, b := post(t, hs.URL, "/whatif", opsJSON(
		Op{Kind: "resize", Cell: u, To: uTo},
		Op{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"}))
	if code != 200 {
		t.Fatalf("mixed whatif status %d: %s", code, b)
	}
	eco := opsJSON(Op{Kind: "resize", Cell: v, To: vTo})
	_, got := post(t, hs.URL, "/eco", eco)
	_, want := post(t, fresh.URL, "/eco", eco)
	if !bytes.Equal(got, want) {
		t.Errorf("/eco after a mixed what-if:\n%s\nfresh server:\n%s", got, want)
	}
	for _, path := range []string{"/slack", "/endpoints?limit=50"} {
		_, got := get(t, hs.URL, path)
		_, want := get(t, fresh.URL, path)
		if !bytes.Equal(got, want) {
			t.Errorf("%s after a mixed what-if and an ECO:\n%s\nfresh server given the ECO alone:\n%s", path, got, want)
		}
	}
}

// A buffer what-if whose request is cancelled mid-apply — after the buffer
// is in the netlist, while the analyzers are re-deriving their graphs — is
// rolled back onto those same, now half-timed, analyzers. The session must
// come out exact: the next ECO answers byte for byte what a server that
// never saw the what-if answers.
func TestCancelledBufferWhatIfLeavesShadowExact(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, hs := newTestServer(t, func(c *Config) {
		c.Hooks = &Hooks{Fire: func(site FaultSite) error {
			if site == SiteCommitApply {
				cancel()
			}
			return nil
		}}
	})
	_, fresh := newTestServer(t, nil)
	net, loads := bufferTarget(t)
	before := s.sess.views.Analyzers()[0]
	if _, err := s.whatIf(ctx, []Op{{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled buffer what-if returned %v", err)
	}
	if s.degraded.Load() {
		t.Fatal("rolling back a cancelled what-if degraded the server")
	}
	if s.sess.views.Analyzers()[0] != before {
		t.Error("the rollback replaced the session's analyzers")
	}
	cell, to := resizeTarget(t)
	eco := opsJSON(Op{Kind: "resize", Cell: cell, To: to})
	_, got := post(t, hs.URL, "/eco", eco)
	_, want := post(t, fresh.URL, "/eco", eco)
	if !bytes.Equal(got, want) {
		t.Errorf("/eco after a cancelled buffer what-if:\n%s\nnever-cancelled server:\n%s", got, want)
	}
	for _, path := range []string{"/slack", "/endpoints?limit=50", "/paths?k=5"} {
		_, got := get(t, hs.URL, path)
		_, want := get(t, fresh.URL, path)
		if !bytes.Equal(got, want) {
			t.Errorf("%s after a cancelled buffer what-if and an ECO:\n%s\nnever-cancelled server:\n%s", path, got, want)
		}
	}
}

// A buffer what-if re-times the analyzers the session has, twice (apply and
// rollback): it measures 700 objects on this fixture, where building eight
// analyzers measured 7 263.
func TestBufferWhatIfAllocations(t *testing.T) {
	s, _ := newTestServer(t, nil)
	net, loads := bufferTarget(t)
	ops := []Op{{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"}}
	whatIf := func() {
		if _, err := s.whatIf(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}
	whatIf() // the slabs outgrow their exact first size once
	const limit = 2000
	if n := testing.AllocsPerRun(5, whatIf); n > limit {
		t.Errorf("a buffer what-if allocates %v objects, want at most %d", n, limit)
	}
}

// What each writer step routes, on one fixed script. A boot routes every net
// with sinks. A resize re-times incrementally and routes nothing. A buffer
// what-if's apply routes the split net at its new fanout and the buffer's
// new net; its rollback routes the split net again at its old fanout, a new
// tree pointer that misses every analyzer's per-net delay cache for that
// net. A buffer ECO is the apply alone, so the rollback routes 3 − 2 = 1.
func TestNetsRoutedCounts(t *testing.T) {
	rec := obs.NewRecorder()
	s, _ := newTestServer(t, func(c *Config) { c.Obs = rec })
	routed := rec.Counter("core.views.nets_routed")
	last := int64(0)
	step := func(name string, want int64) {
		t.Helper()
		if got := routed.Value() - last; got != want {
			t.Errorf("%s routed %d nets, want %d", name, got, want)
		}
		last = routed.Value()
	}
	withSinks := 0
	for _, n := range s.sess.views.D.Nets {
		if n.Fanout() > 0 {
			withSinks++
		}
	}
	if withSinks != 312 {
		t.Fatalf("the fixture has %d nets with sinks, want 312", withSinks)
	}
	step("boot", 312)

	ctx := context.Background()
	cell, to := resizeTarget(t)
	if _, err := s.whatIf(ctx, []Op{{Kind: "resize", Cell: cell, To: to}}); err != nil {
		t.Fatal(err)
	}
	step("a resize what-if", 0)
	net, loads := bufferTarget(t)
	buffer := []Op{{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"}}
	if _, err := s.whatIf(ctx, buffer); err != nil {
		t.Fatal(err)
	}
	step("a buffer what-if (apply and rollback)", 3)
	if _, err := s.commit(ctx, buffer); err != nil {
		t.Fatal(err)
	}
	step("a buffer ECO (apply)", 2)
}

// How many times each writer request re-times the session
// (timingd.retimes). A what-if is evaluate + rollback, two; an ECO is the
// apply alone, one; whether the batch is a resize or a buffer. A shard in a
// cluster barrier re-times once, in its commit: a prepare resolves the
// batch and applies nothing, so an abort has nothing to undo.
func TestRetimesPerWriterRequest(t *testing.T) {
	rec := obs.NewRecorder()
	s, hs := newTestServer(t, func(c *Config) { c.Obs = rec })
	retimes := rec.Counter("timingd.retimes")
	step := func(name, path, body string, want int64) {
		t.Helper()
		last := retimes.Value()
		if code, b := post(t, hs.URL, path, body); code != 200 {
			t.Fatalf("%s: %d %s", name, code, b)
		}
		if got := retimes.Value() - last; got != want {
			t.Errorf("%s re-timed %d times, want %d", name, got, want)
		}
	}
	cell, to := resizeTarget(t)
	resize := opsJSON(Op{Kind: "resize", Cell: cell, To: to})
	net, loads := bufferTarget(t)
	buffer := opsJSON(Op{Kind: "buffer", Net: net, Loads: loads, To: "BUF_X2_SVT"})
	step("a resize what-if", "/whatif", resize, 2)
	step("a resize ECO", "/eco", resize, 1)
	step("a buffer what-if", "/whatif", buffer, 2)
	step("a buffer ECO", "/eco", buffer, 1)
	step("a resize prepare", "/cluster/prepare", prepareBody(t, "tx1", s.Epoch()), 0)
	step("its commit", "/cluster/commit", `{"txn":"tx1"}`, 1)
	step("a resize prepare", "/cluster/prepare", prepareBody(t, "tx2", s.Epoch()), 0)
	step("its abort", "/cluster/abort", `{"txn":"tx2"}`, 0)
}

// The query cache serves repeated queries from rendered bytes within an
// epoch and is dropped on commit.
func TestQueryCacheEpochScoped(t *testing.T) {
	s, hs := newTestServer(t, nil)
	get(t, hs.URL, "/slack")
	get(t, hs.URL, "/slack")
	hits, misses := s.cache.Stats()
	if hits < 1 {
		t.Fatalf("no cache hit after repeat query (hits=%d misses=%d)", hits, misses)
	}
	cell, to := resizeTarget(t)
	post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	_, afterMisses0 := s.cache.Stats()
	get(t, hs.URL, "/slack")
	_, afterMisses1 := s.cache.Stats()
	if afterMisses1 != afterMisses0+1 {
		t.Fatalf("post-commit query did not miss (misses %d -> %d)", afterMisses0, afterMisses1)
	}
}

// The header a coordinator forwards a body by: on every read route, on a
// miss and on the hit that follows, before and after a commit, X-Epoch
// names the epoch the body carries; an error reply carries none.
func TestXEpochNamesTheBodysEpoch(t *testing.T) {
	s, hs := newTestServer(t, nil)
	sc := s.cfg.Recipe.Scenarios[1].Name
	check := func(target string) {
		t.Helper()
		resp, err := http.Get(hs.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var body struct{ Epoch *int64 }
		if resp.StatusCode != 200 {
			if h, ok := resp.Header["X-Epoch"]; ok {
				t.Errorf("%s answered %d with X-Epoch %v", target, resp.StatusCode, h)
			}
			return
		}
		if strings.HasPrefix(target, "/triage/extract") {
			epoch, _, err := triage.DecodeExtracts(b)
			if err != nil {
				t.Fatal(err)
			}
			body.Epoch = &epoch
		} else if err := json.Unmarshal(b, &body); err != nil || body.Epoch == nil {
			t.Fatalf("%s: no epoch in %.200s", target, b)
		}
		if h := resp.Header.Get("X-Epoch"); h != strconv.FormatInt(*body.Epoch, 10) {
			t.Errorf("%s: X-Epoch %q, body epoch %d", target, h, *body.Epoch)
		}
	}
	targets := []string{"/slack", "/endpoints?scenario=" + sc, "/paths?kind=hold&scenario=" + sc,
		"/triage", "/triage/extract?scenario=" + sc, "/paths?k=0", "/triage/extract?scenario=nope"}
	cell, to := resizeTarget(t)
	_, _, d := fixture(t)
	for _, to := range []string{to, d.Cell(cell).TypeName} {
		for range 2 { // a miss, then a hit
			for _, target := range targets {
				check(target)
			}
		}
		if code, b := post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to})); code != 200 {
			t.Fatalf("eco: %d %s", code, b)
		}
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after two commits", s.Epoch())
	}
}

// A cached read never waits on the writer: while a what-if holds the
// session's write lock (parked at SiteCommitApply), a cached /slack answers
// its pre-what-if bytes.
func TestCachedReadsNeverWaitOnWriter(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	_, hs := newTestServer(t, func(c *Config) {
		c.Hooks = &Hooks{Fire: func(site FaultSite) error {
			if site == SiteCommitApply {
				close(parked)
				<-release
			}
			return nil
		}}
	})
	_, before := get(t, hs.URL, "/slack")
	cell, to := resizeTarget(t)
	whatIf := make(chan int)
	go func() {
		code, _ := post(t, hs.URL, "/whatif", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
		whatIf <- code
	}()
	<-parked
	read := make(chan []byte)
	go func() {
		_, b := get(t, hs.URL, "/slack")
		read <- b
	}()
	select {
	case b := <-read:
		if !bytes.Equal(b, before) {
			t.Errorf("cached /slack during a what-if:\n%s\nbefore it:\n%s", b, before)
		}
	case <-time.After(5 * time.Second):
		t.Error("a cached /slack waited on the what-if holding the session")
	}
	close(release)
	if code := <-whatIf; code != http.StatusOK {
		t.Fatalf("what-if answered %d", code)
	}
}

// A full admission queue answers 429 with Retry-After instead of queuing
// unboundedly. The worker and queue slots are pinned by jobs the test
// controls.
func TestBackpressure429(t *testing.T) {
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
	resp, err := http.Get(hs.URL + "/slack")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	// Once drained, service resumes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := get(t, hs.URL, "/slack")
		if code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not recover after drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// An expired per-request budget surfaces as 504, not a hung request.
func TestRequestTimeout504(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) {
		c.RequestTimeout = time.Nanosecond
	})
	code, _ := get(t, hs.URL, "/slack")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request answered %d, want 504", code)
	}
}

// Close drains in-flight queries (they complete with 200) and refuses new
// ones with 503.
func TestGracefulShutdownDrains(t *testing.T) {
	s, hs := newTestServer(t, nil)
	const inFlight = 8
	codes := make(chan int, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/paths?k=3&i=%d", hs.URL, i))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let them admit
	s.Close()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != 200 && code != http.StatusServiceUnavailable {
			t.Fatalf("in-flight request got %d", code)
		}
	}
	code, _ := get(t, hs.URL, "/slack")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-close request answered %d, want 503", code)
	}
}

// Input validation: bad methods, bad params, unknown names.
func TestRequestValidation(t *testing.T) {
	_, hs := newTestServer(t, nil)
	if code, _ := post(t, hs.URL, "/slack", "{}"); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /slack answered %d", code)
	}
	if code, _ := get(t, hs.URL, "/paths?k=zero"); code != http.StatusBadRequest {
		t.Fatalf("bad k answered %d", code)
	}
	if code, _ := get(t, hs.URL, "/endpoints?kind=maybe"); code != http.StatusBadRequest {
		t.Fatalf("bad kind answered %d", code)
	}
	if code, _ := get(t, hs.URL, "/endpoints?scenario=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad scenario answered %d", code)
	}
	if code, _ := post(t, hs.URL, "/whatif", opsJSON(Op{Kind: "resize", Cell: "nope", To: "INV_X1_SVT"})); code != http.StatusBadRequest {
		t.Fatalf("unknown cell answered %d", code)
	}
	if code, _ := post(t, hs.URL, "/whatif", `{"ops":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty ops answered %d", code)
	}
	if code, _ := post(t, hs.URL, "/eco", `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad body answered %d", code)
	}
}

// /healthz and /metrics bypass the admission queue.
func TestHealthAndMetricsBypassQueue(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) {
		c.QueryWorkers = 1
		c.QueueDepth = 1
		c.Obs = obs.NewRecorder()
	})
	release := make(chan struct{})
	started := make(chan struct{})
	s.pool.TrySubmit(func() { close(started); <-release })
	<-started
	s.pool.TrySubmit(func() {})
	defer close(release)
	code, hb := get(t, hs.URL, "/healthz")
	if code != 200 {
		t.Fatalf("healthz under saturation answered %d", code)
	}
	var h Health
	if err := json.Unmarshal(hb, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Scenarios != 2 {
		t.Fatalf("health %+v", h)
	}
	if code, _ := get(t, hs.URL, "/metrics"); code != 200 {
		t.Fatalf("metrics under saturation answered %d", code)
	}
}

// Endpoint and path queries answer consistently across scenario and kind
// parameters.
func TestEndpointsAndPathsQueries(t *testing.T) {
	_, hs := newTestServer(t, nil)
	code, b := get(t, hs.URL, "/endpoints?kind=hold&limit=5&scenario=func_ff_cb")
	if code != 200 {
		t.Fatalf("endpoints answered %d: %s", code, b)
	}
	var er EndpointsReport
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if er.Scenario != "func_ff_cb" || len(er.Endpoints) != 5 {
		t.Fatalf("endpoints shape: %s, %d entries", er.Scenario, len(er.Endpoints))
	}
	for i := 1; i < len(er.Endpoints); i++ {
		if er.Endpoints[i].Slack < er.Endpoints[i-1].Slack {
			t.Fatal("endpoints not sorted worst-first")
		}
	}
	code, b = get(t, hs.URL, "/paths?k=3")
	if code != 200 {
		t.Fatalf("paths answered %d", code)
	}
	var pr PathsReport
	if err := json.Unmarshal(b, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Paths) != 3 {
		t.Fatalf("got %d paths", len(pr.Paths))
	}
	for _, p := range pr.Paths {
		if p.PBASlack < p.GBASlack {
			t.Fatalf("PBA slack %v worse than GBA %v on %s", p.PBASlack, p.GBASlack, p.Endpoint)
		}
		if p.Route == "" || p.Depth <= 0 {
			t.Fatalf("degenerate path report %+v", p)
		}
	}
}

// A design that checks nothing has no worst slack to report (+Inf, which
// JSON cannot carry): the server refuses it at load, naming the scenario,
// where it used to boot and answer /slack, /whatif and /eco with a 500.
func TestBootRefusesDesignWithoutEndpoints(t *testing.T) {
	cfg := testConfig(t)
	cfg.Design = circuits.Block(cfg.Recipe.Scenarios[0].Lib, circuits.BlockSpec{
		Name: "flopless", Inputs: 6, Outputs: 6, FFs: 0, Gates: 40, MaxDepth: 5, Seed: 3,
	})
	s, err := NewServer(cfg)
	if err == nil {
		s.Close()
		t.Fatal("server booted on a design with no timing endpoints")
	}
	if want := cfg.Recipe.Scenarios[0].Name; !strings.Contains(err.Error(), "no timing endpoints") || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name scenario %q", err, want)
	}
}

// The per-scenario summary is read off the analyzers, not rendered: one
// result slice, whatever the design size.
func TestSlacksAllocations(t *testing.T) {
	s, _ := newTestServer(t, nil)
	sess := s.sess
	var rows []ScenarioSlack
	if n := testing.AllocsPerRun(50, func() { rows = sess.slacks() }); n > 2 {
		t.Errorf("session.slacks() allocates %v times per call, want at most 2", n)
	}
	if len(rows) != len(sess.views.Scenarios) || rows[0].HoldViolations == 0 {
		t.Fatalf("fixture summary looks empty: %+v", rows)
	}
}

// Only one session is resident: what NewServer keeps live after a GC is at
// most 1.3× what one core.Views Build of the same design and recipe keeps.
// Each figure is the median of three builds, since garbage an earlier test
// left may be freed during any one of them.
func TestServerRetainsOneSession(t *testing.T) {
	cfg := testConfig(t)
	retained := func(build func() func()) float64 {
		var trials [3]float64
		for i := range trials {
			before := heapAfterGC()
			drop := build()
			trials[i] = heapAfterGC() - before
			drop()
		}
		slices.Sort(trials[:])
		return trials[1]
	}
	server := retained(func() func() {
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Close
	})
	views := retained(func() func() {
		d := cfg.Design.Clone()
		v := &core.Views{
			D: d, ClockPort: d.Port("clk"), BasePeriod: cfg.BasePeriod,
			Scenarios: cfg.Recipe.Scenarios, Parasitics: sta.NewKeyedNetBinder(cfg.Stack, cfg.Seed),
			Workers: cfg.Workers,
		}
		if err := v.Build(context.Background()); err != nil {
			t.Fatal(err)
		}
		return func() { runtime.KeepAlive(v) }
	})
	t.Logf("NewServer retains %.2f MB, one Views Build %.2f MB (%.2f×)", server/1e6, views/1e6, server/views)
	if server > 1.3*views {
		t.Errorf("NewServer retains %.0f B, more than 1.3 × one Views Build's %.0f B", server, views)
	}
}

// A clock period or input arrival that is negative or not finite is a
// configuration error, and so is a zero period a restored pack carries: no
// such clock reaches the triage plan or the analyzers.
func TestNewServerRefusesBadClock(t *testing.T) {
	recipe, stack, d := fixture(t)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative period", func(c *Config) { c.BasePeriod = -560 }},
		{"NaN period", func(c *Config) { c.BasePeriod = units.Ps(math.NaN()) }},
		{"+Inf period", func(c *Config) { c.BasePeriod = units.Ps(math.Inf(1)) }},
		{"-Inf period", func(c *Config) { c.BasePeriod = units.Ps(math.Inf(-1)) }},
		{"negative arrival", func(c *Config) { c.InputArrival = -1 }},
		{"NaN arrival", func(c *Config) { c.InputArrival = units.Ps(math.NaN()) }},
		{"+Inf arrival", func(c *Config) { c.InputArrival = units.Ps(math.Inf(1)) }},
		{"restored zero period", func(c *Config) {
			c.Restore = &pack.Snapshot{Design: d, Recipe: &recipe, Stack: stack, ClockPort: "clk", Seed: 7}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t)
			tc.mut(&cfg)
			s, err := NewServer(cfg)
			if err == nil {
				s.Close()
				t.Fatal("server booted")
			}
			if !strings.Contains(err.Error(), "period") && !strings.Contains(err.Error(), "arrival") {
				t.Fatalf("error %q names neither the period nor the arrival", err)
			}
		})
	}
	// 0 still means the default period.
	cfg := testConfig(t)
	cfg.BasePeriod = 0
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("a zero configured period must default: %v", err)
	}
	s.Close()
}
