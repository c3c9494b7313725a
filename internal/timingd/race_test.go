package timingd

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newgame/internal/serve"
	"newgame/internal/sta"
	"newgame/internal/triage"
)

// logged is one response observed during the concurrent phase. Epoch is
// parsed from the response body — it is the replay key.
type logged struct {
	method string
	uri    string
	body   string
	epoch  int64
	resp   []byte
}

func parseEpoch(t testing.TB, b []byte) int64 {
	t.Helper()
	var e struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("response without epoch: %v in %s", err, b)
	}
	return e.Epoch
}

// findResize returns a combinational resize target other than exclude.
func findResize(t testing.TB, exclude string) (cell, to string) {
	t.Helper()
	recipe, _, d := fixture(t)
	lib := recipe.Scenarios[0].Lib
	for _, c := range d.Cells {
		if c.Name == exclude {
			continue
		}
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
	t.Fatal("no second resize target")
	return "", ""
}

// TestRendersBorrowWithoutWaiting: /triage, /triage/extract and /paths
// renders on one session at once — each borrowing the session's triage graph
// and the scenarios' walkers, or working on fresh ones while another render
// has them — answer byte for byte what one render alone does, and none
// waits: with every walker held, renders still complete. Run it under -race.
func TestRendersBorrowWithoutWaiting(t *testing.T) {
	s, _ := newTestServer(t, nil)
	sess := s.sess
	opts := triage.Options{K: 3, Window: 10}
	renders := []func() any{
		func() any { return s.triageReport(sess, 0, opts) },
		func() any {
			return sess.triage.EncodeExtracts(0, []triage.ScenarioExtract{s.triageExtract(sess, 1, opts)})
		},
		func() any { return sess.pathsReport(0, 0, sta.Setup, 10) },
		func() any { return sess.pathsReport(0, 1, sta.Hold, 10) },
	}
	encode := func(v any) string {
		b, _ := serve.JSON(v)
		return string(b)
	}
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	want := make([]string, len(renders))
	for i, r := range renders {
		want[i] = encode(r())
	}
	for i := range sess.walkers {
		sess.walkers[i].mu.Lock()
	}
	for i, r := range renders {
		if got := encode(r()); got != want[i] {
			t.Fatalf("render %d on fresh walkers differs:\n%.300s\n%.300s", i, got, want[i])
		}
	}
	for i := range sess.walkers {
		sess.walkers[i].mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 12; j++ {
				k := (g + j) % len(renders)
				if got := encode(renders[k]()); got != want[k] {
					t.Errorf("render %d differs under concurrent renders", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentQueriesReplayByteIdentical is the determinism contract of
// the epoch protocol: N concurrent clients issue reads and what-ifs while
// ECO commits land, every response is logged with its epoch tag, and then
// the whole log is replayed serially against a fresh, identically
// configured server — applying the commits in epoch order. Every replayed
// response must be byte-identical to the logged one. Run it under -race:
// it exercises lock-free cache hits racing the epoch publish, cold renders
// waiting on the session's write lock, and what-ifs racing commits for the
// writer lock.
func TestConcurrentQueriesReplayByteIdentical(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) {
		c.QueryWorkers = 4
		c.QueueDepth = 256
	})

	ecoCell, ecoLVT := resizeTarget(t)
	_, _, d := fixture(t)
	ecoSVT := d.Cell(ecoCell).TypeName
	wifCell, wifTo := findResize(t, ecoCell)

	const commits = 4
	ecoBodies := make([]string, commits)
	for i := range ecoBodies {
		to := ecoLVT
		if i%2 == 1 {
			to = ecoSVT
		}
		ecoBodies[i] = opsJSON(Op{Kind: "resize", Cell: ecoCell, To: to})
	}

	var (
		mu      sync.Mutex
		log     []logged
		ecoLog  []logged
		stop    atomic.Bool
		readers sync.WaitGroup
	)
	record := func(e logged) {
		mu.Lock()
		log = append(log, e)
		mu.Unlock()
	}

	uris := []string{
		"/slack", "/endpoints?limit=8", "/paths?k=2",
		"/endpoints?kind=hold&limit=4", "/slack", "/paths?k=3",
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; !stop.Load() && i < 2000; i++ {
				uri := uris[(g+i)%len(uris)]
				code, b := get(t, hs.URL, uri)
				if code != 200 {
					continue // backpressure shed; not part of the contract
				}
				record(logged{method: "GET", uri: uri, epoch: parseEpoch(t, b), resp: b})
			}
		}(g)
	}
	wifBody := opsJSON(Op{Kind: "resize", Cell: wifCell, To: wifTo})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 5; i++ {
				code, b := post(t, hs.URL, "/whatif", wifBody)
				if code != 200 {
					continue
				}
				record(logged{method: "POST", uri: "/whatif", body: wifBody, epoch: parseEpoch(t, b), resp: b})
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	// Commits land from the main goroutine, spaced so reads observe
	// several distinct epochs mid-flight.
	for i := 0; i < commits; i++ {
		time.Sleep(25 * time.Millisecond)
		code, b := post(t, hs.URL, "/eco", ecoBodies[i])
		if code != 200 {
			t.Fatalf("eco %d failed: %d %s", i, code, b)
		}
		if got := parseEpoch(t, b); got != int64(i+1) {
			t.Fatalf("eco %d returned epoch %d", i, got)
		}
		ecoLog = append(ecoLog, logged{method: "POST", uri: "/eco", body: ecoBodies[i], resp: b})
	}
	stop.Store(true)
	readers.Wait()

	if len(log) < commits {
		t.Fatalf("only %d concurrent responses logged", len(log))
	}
	epochsSeen := map[int64]bool{}
	for _, e := range log {
		epochsSeen[e.epoch] = true
	}
	if len(epochsSeen) < 2 {
		t.Fatalf("concurrent phase observed only epochs %v; no interleaving to verify", epochsSeen)
	}

	// Serial replay on a fresh server: same design, same seed, same
	// config. Epoch by epoch: answer everything logged at that epoch, then
	// apply the next commit and check its response too.
	_, hsB := newTestServer(t, func(c *Config) {
		c.QueryWorkers = 4
		c.QueueDepth = 256
	})
	byEpoch := map[int64][]logged{}
	for _, e := range log {
		byEpoch[e.epoch] = append(byEpoch[e.epoch], e)
	}
	checked := 0
	for epoch := int64(0); epoch <= commits; epoch++ {
		for _, e := range byEpoch[epoch] {
			var code int
			var b []byte
			if e.method == "GET" {
				code, b = get(t, hsB.URL, e.uri)
			} else {
				code, b = post(t, hsB.URL, e.uri, e.body)
			}
			if code != 200 {
				t.Fatalf("replay %s %s at epoch %d: status %d", e.method, e.uri, epoch, code)
			}
			if !bytes.Equal(b, e.resp) {
				t.Fatalf("replay mismatch for %s %s at epoch %d:\nconcurrent: %s\nserial:     %s",
					e.method, e.uri, epoch, e.resp, b)
			}
			checked++
		}
		if epoch < commits {
			code, b := post(t, hsB.URL, "/eco", ecoLog[epoch].body)
			if code != 200 {
				t.Fatalf("replay eco %d: status %d %s", epoch, code, b)
			}
			if !bytes.Equal(b, ecoLog[epoch].resp) {
				t.Fatalf("replay eco %d mismatch:\nconcurrent: %s\nserial:     %s",
					epoch, ecoLog[epoch].resp, b)
			}
		}
	}
	t.Logf("replayed %d concurrent responses + %d commits byte-identically across %d epochs",
		checked, commits, len(epochsSeen))
}
