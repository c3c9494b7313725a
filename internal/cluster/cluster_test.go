package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/timingd"
)

// fixture builds the shared design/recipe every worker boots from — the
// in-process analog of "restored from the same pack".
type fixture struct {
	recipe core.Recipe
	design *netlist.Design
	names  []string
}

var (
	fixOnce sync.Once
	fix     fixture
)

func testFixture(t testing.TB) fixture {
	t.Helper()
	fixOnce.Do(func() {
		stack := parasitics.Stack16()
		recipe := core.OldGoalPosts(liberty.Node16, stack)
		d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
			Name: "cx", Inputs: 8, Outputs: 8, FFs: 20, Gates: 240,
			MaxDepth: 8, Seed: 13, ClockBufferLevels: 2,
			VtMix: [3]float64{0, 0.5, 0.5},
		})
		names := make([]string, len(recipe.Scenarios))
		for i, sc := range recipe.Scenarios {
			names[i] = sc.Name
		}
		fix = fixture{recipe: recipe, design: d, names: names}
	})
	return fix
}

// resizeOp finds a pin-compatible Vt swap in the fixture design.
func resizeOp(t *testing.T) timingd.Op {
	t.Helper()
	f := testFixture(t)
	lib := f.recipe.Scenarios[0].Lib
	for _, c := range f.design.Cells {
		m := lib.Cell(c.TypeName)
		if m == nil || m.IsSequential() || !strings.HasSuffix(c.TypeName, "_SVT") {
			continue
		}
		v := strings.TrimSuffix(c.TypeName, "_SVT") + "_LVT"
		if lib.Cell(v) != nil {
			return timingd.Op{Kind: "resize", Cell: c.Name, To: v}
		}
	}
	t.Fatal("no resize target in fixture")
	return timingd.Op{}
}

// workerConfig is one shard's configuration over the fixture.
func workerConfig(t testing.TB, filter []string) timingd.Config {
	f := testFixture(t)
	return timingd.Config{
		Design: f.design, Recipe: f.recipe, Stack: parasitics.Stack16(),
		BasePeriod: 560, Seed: 13, QueryWorkers: 2,
		Role: "worker", ScenarioFilter: filter,
	}
}

// isSynced reports whether the agent's last register/heartbeat round-trip
// succeeded — i.e. the coordinator currently counts this worker in.
func (a *Agent) isSynced() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.synced
}

// startWorker boots one timingd shard over the fixture, optionally
// filtered to a scenario subset.
func startWorker(t *testing.T, filter []string, mut func(*timingd.Config)) (*timingd.Server, *httptest.Server) {
	t.Helper()
	cfg := workerConfig(t, filter)
	if mut != nil {
		mut(&cfg)
	}
	srv, err := timingd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

// startCoordinator boots a coordinator over the fixture's scenario
// names with test-friendly timings (no surprise evictions).
func startCoordinator(t *testing.T, mut func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	f := testFixture(t)
	cfg := Config{
		Scenarios:         f.names,
		HeartbeatInterval: time.Hour, // tests drive membership explicitly
		ShardTimeout:      5 * time.Second,
		WriteTimeout:      30 * time.Second,
		RetryDelay:        time.Millisecond,
		Seed:              42,
		Logf:              t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() { hs.Close(); c.Close() })
	return c, hs
}

// registerWorker announces a worker to the coordinator over HTTP.
func registerWorker(t *testing.T, coordURL, id string, srv *timingd.Server, url string) RegisterResponse {
	t.Helper()
	var resp RegisterResponse
	code, body := postJSONT(t, coordURL+"/cluster/register", RegisterRequest{
		ID: id, URL: url, Epoch: srv.Epoch(), Scenarios: srv.ScenarioSet(),
	})
	if code != 200 {
		t.Fatalf("register %s: %d %s", id, code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func postJSONT(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func getT(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// startShardedPair boots two workers each owning one of the fixture's
// two scenarios plus a coordinator fronting them.
func startShardedPair(t *testing.T) (*Coordinator, string, []*timingd.Server, []*httptest.Server) {
	t.Helper()
	f := testFixture(t)
	c, chs := startCoordinator(t, nil)
	var srvs []*timingd.Server
	var hss []*httptest.Server
	for i := range f.names {
		srv, hs := startWorker(t, []string{f.names[i]}, nil)
		registerWorker(t, chs.URL, fmt.Sprintf("w%d", i), srv, hs.URL)
		srvs = append(srvs, srv)
		hss = append(hss, hs)
	}
	return c, chs.URL, srvs, hss
}

// TestClusterMergedReads: a two-shard cluster answers /slack with the
// canonical scenario order, correct min/sum merge, and per-scenario
// /endpoints proxied to the owning shard.
func TestClusterMergedReads(t *testing.T) {
	f := testFixture(t)
	_, base, srvs, _ := startShardedPair(t)

	code, body := getT(t, base+"/healthz")
	var h ClusterHealth
	if code != 200 || json.Unmarshal(body, &h) != nil {
		t.Fatalf("healthz %d %s", code, body)
	}
	if h.Status != "ok" || h.Degraded || len(h.Members) != 2 || h.Epoch != 0 {
		t.Fatalf("healthz %+v", h)
	}

	code, body = getT(t, base+"/slack")
	if code != 200 {
		t.Fatalf("slack %d %s", code, body)
	}
	var sr SlackReport
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Degraded || len(sr.Scenarios) != len(f.names) {
		t.Fatalf("slack %+v", sr)
	}
	for i, sc := range sr.Scenarios {
		if sc.Scenario != f.names[i] {
			t.Fatalf("scenario order: got %q at %d, want %q", sc.Scenario, i, f.names[i])
		}
	}
	// Re-derive the merge: min clamped at 0 / sum.
	want := mergeSlacks(sr.Scenarios)
	if sr.Merged != want {
		t.Fatalf("merged %+v want %+v", sr.Merged, want)
	}
	if sr.Merged.SetupTNS != sr.Scenarios[0].SetupTNS+sr.Scenarios[1].SetupTNS {
		t.Fatal("merged TNS is not the sum")
	}

	// Cached second read must be byte-identical.
	_, body2 := getT(t, base+"/slack")
	if !bytes.Equal(body, body2) {
		t.Fatal("cached slack differs")
	}

	// Per-scenario endpoint query routes to the shard owning it and the
	// answer matches asking that shard directly.
	for i, srv := range srvs {
		_ = srv
		code, body := getT(t, base+"/endpoints?scenario="+f.names[i]+"&kind=setup&limit=3")
		if code != 200 {
			t.Fatalf("endpoints[%d]: %d %s", i, code, body)
		}
		var er timingd.EndpointsReport
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Scenario != f.names[i] || len(er.Endpoints) != 3 {
			t.Fatalf("endpoints[%d] %+v", i, er)
		}
	}
	if code, _ := getT(t, base+"/endpoints?scenario=nope"); code != 400 {
		t.Fatalf("unknown scenario = %d", code)
	}
	if code, _ := getT(t, base+"/paths?kind=setup&k=2"); code != 200 {
		t.Fatalf("paths default scenario = %d", code)
	}
}

// TestClusterBarrierCommit: an ECO through the coordinator advances
// every shard and the coordinator to the same epoch atomically, and the
// merged report covers all scenarios in canonical order.
func TestClusterBarrierCommit(t *testing.T) {
	f := testFixture(t)
	c, base, srvs, _ := startShardedPair(t)
	op := resizeOp(t)

	// What-if first: speculative, epoch untouched.
	code, body := postJSONT(t, base+"/whatif", struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{op}})
	if code != 200 {
		t.Fatalf("whatif %d %s", code, body)
	}
	var wif timingd.WhatIfReport
	json.Unmarshal(body, &wif)
	if wif.Committed || wif.Epoch != 0 || len(wif.After) != len(f.names) {
		t.Fatalf("whatif %+v", wif)
	}

	code, body = postJSONT(t, base+"/eco", struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{op}})
	if code != 200 {
		t.Fatalf("eco %d %s", code, body)
	}
	var eco timingd.WhatIfReport
	json.Unmarshal(body, &eco)
	if !eco.Committed || eco.Epoch != 1 || len(eco.Before) != len(f.names) || len(eco.After) != len(f.names) {
		t.Fatalf("eco %+v", eco)
	}
	for i := range eco.After {
		if eco.After[i].Scenario != f.names[i] {
			t.Fatalf("eco scenario order %+v", eco.After)
		}
	}
	if c.Epoch() != 1 {
		t.Fatalf("coordinator epoch %d", c.Epoch())
	}
	for i, srv := range srvs {
		if srv.Epoch() != 1 {
			t.Fatalf("worker %d epoch %d", i, srv.Epoch())
		}
	}
	// The what-if's After at epoch 0 equals the committed baseline — the
	// speculative answer was honest.
	code, body = getT(t, base+"/slack")
	var sr SlackReport
	if code != 200 || json.Unmarshal(body, &sr) != nil {
		t.Fatalf("slack %d", code)
	}
	wa, _ := json.Marshal(wif.After)
	sa, _ := json.Marshal(sr.Scenarios)
	if sr.Epoch != 1 || !bytes.Equal(wa, sa) {
		t.Fatalf("post-eco slack mismatch:\n%s\n%s", wa, sa)
	}

	// Barrier flight recorder saw one committed barrier.
	code, body = getT(t, base+"/debug/barriers")
	var dbg DebugBarriersReport
	if code != 200 || json.Unmarshal(body, &dbg) != nil {
		t.Fatal("debug/barriers")
	}
	if len(dbg.Barriers) != 1 || dbg.Barriers[0].Outcome != "committed" || dbg.Barriers[0].Epoch != 1 {
		t.Fatalf("barriers %+v", dbg.Barriers)
	}
}

// TestClusterDegradedReads: a worker dying with sole ownership of a
// scenario degrades reads (the scenario goes stale, the rest keep
// serving) and refuses writes, instead of failing everything.
func TestClusterDegradedReads(t *testing.T) {
	f := testFixture(t)
	_, base, _, hss := startShardedPair(t)
	op := resizeOp(t)

	hss[1].Close() // kill the shard owning scenario 1; member still "alive"

	code, body := getT(t, base+"/slack")
	if code != 200 {
		t.Fatalf("degraded slack must still answer: %d %s", code, body)
	}
	var sr SlackReport
	json.Unmarshal(body, &sr)
	if !sr.Degraded || len(sr.Scenarios) != 1 || sr.Scenarios[0].Scenario != f.names[0] {
		t.Fatalf("degraded slack %+v", sr)
	}
	if len(sr.Stale) != 1 || sr.Stale[0] != f.names[1] {
		t.Fatalf("stale %+v", sr.Stale)
	}

	// The surviving scenario still answers endpoint queries; the stale
	// one refuses with 5xx, not a wrong answer.
	if code, _ := getT(t, base+"/endpoints?scenario="+f.names[0]+"&kind=setup&limit=2"); code != 200 {
		t.Fatalf("surviving scenario endpoints = %d", code)
	}
	if code, _ := getT(t, base+"/endpoints?scenario="+f.names[1]); code < 500 {
		t.Fatalf("stale scenario endpoints = %d, want 5xx", code)
	}

	// Writes refuse cleanly and mark the worker dead.
	code, body = postJSONT(t, base+"/eco", struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{op}})
	if code != 503 {
		t.Fatalf("eco against half-dead cluster = %d %s", code, body)
	}
	code, body = getT(t, base+"/healthz")
	var h ClusterHealth
	json.Unmarshal(body, &h)
	if !h.Degraded || h.Status != "degraded" {
		t.Fatalf("healthz after dead worker %+v", h)
	}
	// Second write refuses immediately on membership (degraded path).
	if code, _ := postJSONT(t, base+"/eco", struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{op}}); code != 503 {
		t.Fatalf("second eco = %d", code)
	}
}

// TestClusterCatchUpReplay: a worker joining (or rejoining) behind the
// cluster epoch is replayed forward from the barrier oplog before it
// serves — late boot order is free.
func TestClusterCatchUpReplay(t *testing.T) {
	c, chs := startCoordinator(t, nil)
	srvA, hsA := startWorker(t, nil, nil) // serves both scenarios
	registerWorker(t, chs.URL, "wa", srvA, hsA.URL)
	op := resizeOp(t)

	for i := 0; i < 2; i++ {
		code, body := postJSONT(t, chs.URL+"/eco", struct {
			Ops []timingd.Op `json:"ops"`
		}{[]timingd.Op{op}})
		if code != 200 {
			t.Fatalf("eco %d: %d %s", i, code, body)
		}
	}
	if c.Epoch() != 2 || srvA.Epoch() != 2 {
		t.Fatalf("epochs %d/%d", c.Epoch(), srvA.Epoch())
	}

	// A fresh worker at epoch 0 joins: registration replays both
	// barriers onto it synchronously.
	srvB, hsB := startWorker(t, nil, nil)
	resp := registerWorker(t, chs.URL, "wb", srvB, hsB.URL)
	if resp.Epoch != 2 || resp.Replayed != 2 {
		t.Fatalf("register response %+v", resp)
	}
	if srvB.Epoch() != 2 {
		t.Fatalf("worker B epoch %d after catch-up", srvB.Epoch())
	}
	// Replayed state answers identically to the shard that lived it.
	ctx := context.Background()
	ra, err := timingdSlack(ctx, hsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := timingdSlack(ctx, hsB.URL)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(ra.Scenarios)
	jb, _ := json.Marshal(rb.Scenarios)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("replayed shard diverged:\n%s\n%s", ja, jb)
	}

	// A worker "ahead" of the cluster is rejected, not silently adopted.
	srvC, hsC := startWorker(t, nil, nil)
	for i := 0; i < 3; i++ {
		if _, err := timingdCommit(ctx, hsC.URL, []timingd.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	code, body := postJSONT(t, chs.URL+"/cluster/register", RegisterRequest{
		ID: "wc", URL: hsC.URL, Epoch: srvC.Epoch(), Scenarios: srvC.ScenarioSet(),
	})
	if code != 409 {
		t.Fatalf("ahead-of-cluster register = %d %s", code, body)
	}
}

// TestClusterEvictionAndRevival: missed heartbeats evict; a beat at the
// right epoch revives; a beat behind forces re-registration.
func TestClusterEvictionAndRevival(t *testing.T) {
	c, chs := startCoordinator(t, func(cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.DeadAfter = 2
	})
	srv, hs := startWorker(t, nil, nil)
	registerWorker(t, chs.URL, "w0", srv, hs.URL)

	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := getT(t, chs.URL+"/healthz")
		var h ClusterHealth
		if code != 200 || json.Unmarshal(body, &h) != nil {
			t.Fatal("healthz")
		}
		if len(h.Members) == 1 && h.Members[0].State == "dead" {
			if !h.Degraded {
				t.Fatalf("dead member but not degraded: %+v", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never evicted: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Beat at the cluster epoch revives in place.
	code, body := postJSONT(t, chs.URL+"/cluster/heartbeat", HeartbeatRequest{ID: "w0", Epoch: srv.Epoch()})
	var hb HeartbeatResponse
	if code != 200 || json.Unmarshal(body, &hb) != nil || hb.Register {
		t.Fatalf("revival heartbeat: %d %s", code, body)
	}
	_ = c
	code, body = getT(t, chs.URL+"/healthz")
	var h ClusterHealth
	json.Unmarshal(body, &h)
	if h.Members[0].State != "alive" || h.Degraded {
		t.Fatalf("after revival %+v", h)
	}

	// Unknown worker is told to register.
	code, body = postJSONT(t, chs.URL+"/cluster/heartbeat", HeartbeatRequest{ID: "stranger", Epoch: 0})
	json.Unmarshal(body, &hb)
	if code != 200 || !hb.Register {
		t.Fatalf("stranger heartbeat %d %+v", code, hb)
	}
}

// TestClusterScenarioMismatch: a worker whose scenario set does not
// match the cluster recipe (wrong pack) is rejected at registration.
func TestClusterScenarioMismatch(t *testing.T) {
	_, chs := startCoordinator(t, nil)
	code, body := postJSONT(t, chs.URL+"/cluster/register", RegisterRequest{
		ID: "wx", URL: "http://localhost:1", Epoch: 0,
		Scenarios: []timingd.ScenarioRef{{Index: 0, Name: "wrong_pack_scenario"}},
	})
	if code != 400 || !strings.Contains(string(body), "different pack") {
		t.Fatalf("mismatch register = %d %s", code, body)
	}
}

// TestAgentLifecycle: the agent registers a live worker, keeps it
// synced via heartbeats, and re-registers after an eviction.
func TestAgentLifecycle(t *testing.T) {
	_, chs := startCoordinator(t, func(cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.DeadAfter = 3
	})
	srv, hs := startWorker(t, nil, nil)
	a, err := StartAgent(AgentConfig{
		ID: "wa", AdvertiseURL: hs.URL, CoordinatorURL: chs.URL,
		Interval: 20 * time.Millisecond, Source: srv, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for !a.isSynced() {
		if time.Now().After(deadline) {
			t.Fatal("agent never synced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, body := getT(t, chs.URL+"/healthz")
	var h ClusterHealth
	if code != 200 || json.Unmarshal(body, &h) != nil {
		t.Fatal("healthz")
	}
	if len(h.Members) != 1 || h.Members[0].State != "alive" || h.Degraded {
		t.Fatalf("agent-registered health %+v", h)
	}
}

// timingdSlack/timingdCommit are tiny direct-HTTP helpers against a
// worker (avoiding an import cycle on the client package's tests).
func timingdSlack(ctx context.Context, base string) (timingd.SlackReport, error) {
	var out timingd.SlackReport
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/slack", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		return out, fmt.Errorf("slack: %d %s", resp.StatusCode, data)
	}
	return out, json.Unmarshal(data, &out)
}

func timingdCommit(ctx context.Context, base string, ops []timingd.Op) (timingd.WhatIfReport, error) {
	var out timingd.WhatIfReport
	b, _ := json.Marshal(struct {
		Ops []timingd.Op `json:"ops"`
	}{ops})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/eco", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		return out, fmt.Errorf("eco: %d %s", resp.StatusCode, data)
	}
	return out, json.Unmarshal(data, &out)
}
