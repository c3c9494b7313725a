package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"newgame/internal/obs"
	"newgame/internal/timingd"
)

// countingTransport counts the worker requests a coordinator sends, by path.
type countingTransport struct {
	mu    sync.Mutex
	paths map[string]int
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.paths[r.URL.Path]++
	t.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the counts since the last take and starts over.
func (t *countingTransport) take() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	got := t.paths
	t.paths = map[string]int{}
	return got
}

// The worker requests each coordinator route sends to two disjoint shards of
// two scenarios each: one per shard for a whole-recipe read, a what-if or
// /triage's extracts, one for a single-scenario read, and prepare, verify
// and commit on every shard for an ECO. Every shard re-times twice per
// what-if (evaluate, rollback), once per ECO (its commit) and never for a
// read.
func TestRequestsPerRoute(t *testing.T) {
	f := testFixture(t)
	recipe := f.recipe
	recipe.Scenarios = nil
	for _, sc := range f.recipe.Scenarios {
		scan := sc
		scan.Name, scan.PeriodScale = "scan_"+sc.Name, 4
		recipe.Scenarios = append(recipe.Scenarios, sc, scan)
	}
	var names []string
	for _, sc := range recipe.Scenarios {
		names = append(names, sc.Name)
	}
	tr := &countingTransport{paths: map[string]int{}}
	_, chs := startCoordinator(t, func(c *Config) {
		c.Scenarios = names
		c.HTTP = &http.Client{Transport: tr}
	})
	var retimes []*obs.Counter
	for i := range 2 {
		rec := obs.NewRecorder()
		retimes = append(retimes, rec.Counter("timingd.retimes"))
		srv, hs := startWorker(t, names[2*i:2*i+2], func(c *timingd.Config) { c.Recipe, c.Obs = recipe, rec })
		registerWorker(t, chs.URL, fmt.Sprintf("w%d", i), srv, hs.URL)
	}
	ops := struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{resizeOp(t)}}
	for _, rt := range []struct {
		method, path string
		want         map[string]int
		retimes      int64
	}{
		{"GET", "/slack", map[string]int{"/slack": 2}, 0},
		{"POST", "/whatif", map[string]int{"/whatif": 2}, 2},
		{"GET", "/triage", map[string]int{"/triage/extract": 2}, 0},
		{"GET", "/paths?scenario=" + names[3], map[string]int{"/paths": 1}, 0},
		{"GET", "/endpoints?scenario=" + names[1], map[string]int{"/endpoints": 1}, 0},
		{"POST", "/eco", map[string]int{"/cluster/prepare": 2, "/healthz": 2, "/cluster/commit": 2}, 1},
	} {
		last := make([]int64, len(retimes))
		for i, r := range retimes {
			last[i] = r.Value()
		}
		var code int
		var body []byte
		if rt.method == "GET" {
			code, body = getT(t, chs.URL+rt.path)
		} else {
			code, body = postJSONT(t, chs.URL+rt.path, ops)
		}
		if code != 200 {
			t.Fatalf("%s %s: %d %s", rt.method, rt.path, code, body)
		}
		if got := tr.take(); fmt.Sprint(got) != fmt.Sprint(rt.want) {
			t.Errorf("%s %s sent %v, want %v", rt.method, rt.path, got, rt.want)
		}
		for i, r := range retimes {
			if got := r.Value() - last[i]; got != rt.retimes {
				t.Errorf("%s %s re-timed worker w%d %d times, want %d", rt.method, rt.path, i, got, rt.retimes)
			}
		}
	}
}

// refusingWorker boots a worker whose answers on one path become a 429 while
// refuse is set — a shard whose query queue is full.
func refusingWorker(t *testing.T, filter []string, path string, refuse *atomic.Bool) (*timingd.Server, *httptest.Server) {
	t.Helper()
	srv, err := timingd.NewServer(workerConfig(t, filter))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if refuse.Load() && r.URL.Path == path {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"query queue full"}` + "\n"))
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

// primaryOf names the member the coordinator asks first for scenario idx.
func primaryOf(c *Coordinator, idx int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.candidatesFor(c.cfg.Scenarios[idx], idx)[0].id
}

// A 429 is a busy shard, not a bad request: a proxied read tries the
// replica, and answers 429 only when no replica answers either.
func TestProxied429TriesTheReplica(t *testing.T) {
	f := testFixture(t)
	rec := obs.NewRecorder()
	c, chs := startCoordinator(t, func(c *Config) { c.Obs = rec })
	refuse := map[string]*atomic.Bool{}
	for i, filter := range [][]string{{f.names[0]}, {f.names[1]}, {f.names[1]}} {
		id := fmt.Sprintf("w%d", i)
		refuse[id] = new(atomic.Bool)
		srv, hs := refusingWorker(t, filter, "/endpoints", refuse[id])
		registerWorker(t, chs.URL, id, srv, hs.URL)
	}
	_, single := startWorker(t, nil, nil)
	q := "/endpoints?scenario=" + f.names[1] + "&kind=setup&limit=3"
	_, want := getT(t, single.URL+q)

	refuse[primaryOf(c, 1)].Store(true)
	code, body := getT(t, chs.URL+q)
	if code != 200 || !bytes.Equal(body, want) {
		t.Fatalf("endpoints with a busy primary: %d %s\nwant the single node's %s", code, body, want)
	}
	if got := rec.Counter("cluster.proxy.replica_retries").Value(); got != 1 {
		t.Errorf("cluster.proxy.replica_retries = %d, want 1", got)
	}

	for _, r := range refuse {
		r.Store(true)
	}
	if code, body := getT(t, chs.URL+q+"&limit=2"); code != http.StatusTooManyRequests {
		t.Fatalf("endpoints with every candidate busy: %d %s, want 429", code, body)
	}
}

// A primary whose server is gone while its membership still reads alive:
// every scenario it served has a replica, so /whatif, /triage and /paths
// answer from the replicas, byte-identical to a single node serving the
// full recipe, and each fallback bumps its route's counter.
func TestReplicatedFallback(t *testing.T) {
	f := testFixture(t)
	rec := obs.NewRecorder()
	c, chs := startCoordinator(t, func(c *Config) { c.Obs = rec })
	hss := map[string]*httptest.Server{}
	for i, filter := range [][]string{nil, {f.names[0]}, {f.names[1]}} {
		id := fmt.Sprintf("w%d", i)
		srv, hs := startWorker(t, filter, nil)
		registerWorker(t, chs.URL, id, srv, hs.URL)
		hss[id] = hs
	}
	_, single := startWorker(t, nil, nil)
	hss[primaryOf(c, 0)].Close()

	op := struct {
		Ops []timingd.Op `json:"ops"`
	}{[]timingd.Op{resizeOp(t)}}
	for _, rt := range []struct {
		method, path, counter string
	}{
		{"POST", "/whatif", "cluster.whatif.replica_retries"},
		{"GET", "/triage", "cluster.proxy.replica_retries"},
		{"GET", "/paths?scenario=" + f.names[0] + "&kind=setup&k=3", "cluster.proxy.replica_retries"},
	} {
		last := rec.Counter(rt.counter).Value()
		var code int
		var body, want []byte
		if rt.method == "GET" {
			code, body = getT(t, chs.URL+rt.path)
			_, want = getT(t, single.URL+rt.path)
		} else {
			code, body = postJSONT(t, chs.URL+rt.path, op)
			_, want = postJSONT(t, single.URL+rt.path, op)
		}
		if code != 200 || !bytes.Equal(body, want) {
			t.Errorf("%s %s with the primary gone: %d %s\nwant the single node's %s", rt.method, rt.path, code, clip(body), clip(want))
		}
		if got := rec.Counter(rt.counter).Value() - last; got != 1 {
			t.Errorf("%s %s bumped %s by %d, want 1", rt.method, rt.path, rt.counter, got)
		}
	}

	// /slack falls back the same way, and reports nothing stale.
	last := rec.Counter("cluster.slack.replica_retries").Value()
	code, body := getT(t, chs.URL+"/slack")
	var sr SlackReport
	if code != 200 || json.Unmarshal(body, &sr) != nil || sr.Degraded || len(sr.Scenarios) != len(f.names) {
		t.Fatalf("slack with the primary gone: %d %s", code, body)
	}
	if got := rec.Counter("cluster.slack.replica_retries").Value() - last; got != 1 {
		t.Errorf("/slack bumped cluster.slack.replica_retries by %d, want 1", got)
	}
}
