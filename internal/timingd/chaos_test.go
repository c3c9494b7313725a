package timingd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chaosHook is a deterministic fault schedule: every seam firing gets a
// sequence number, and fixed moduli decide which firings sleep, fail, or
// panic. Determinism matters — the test asserts each fault kind actually
// fired, and a flaky schedule would flake the assertion.
type chaosHook struct {
	n                    atomic.Int64
	delays, errs, panics atomic.Int64
	panicSites           map[FaultSite]bool // sites allowed to panic
	errSites             map[FaultSite]bool // sites allowed to error
}

func (h *chaosHook) fire(site FaultSite) error {
	n := h.n.Add(1)
	switch {
	case n%31 == 0 && h.panicSites[site]:
		h.panics.Add(1)
		panic(fmt.Sprintf("injected panic at %s (firing %d)", site, n))
	case n%23 == 0 && h.errSites[site]:
		h.errs.Add(1)
		return fmt.Errorf("injected fault at %s (firing %d)", site, n)
	case n%17 == 0:
		h.delays.Add(1)
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// TestChaosMixedLoad runs concurrent readers against a committing writer
// while the hook injects delays everywhere, errors on the cache and the
// writer's resolve step, and panics on the read-path cache. Contract: the
// daemon absorbs all of it — no crash, no degraded mode, and every
// response that reports an epoch is byte-identical to every other
// response for the same (epoch, query), faulty cache or not.
func TestChaosMixedLoad(t *testing.T) {
	hook := &chaosHook{
		panicSites: map[FaultSite]bool{SiteCacheGet: true},
		errSites:   map[FaultSite]bool{SiteCacheGet: true, SiteCachePut: true, SiteCommitResolve: true},
	}
	_, hs := newTestServer(t, func(c *Config) {
		c.Hooks = &Hooks{Fire: hook.fire}
	})
	cell, to := resizeTarget(t)
	oldType := cellType(t, cell)

	// byEpoch pins the replay guarantee: /slack bodies carry their epoch,
	// so two equal-epoch answers must be byte-equal whether one was served
	// from the cache and the other rendered after a what-if or a failed
	// commit rolled the session back.
	var mu sync.Mutex
	byEpoch := map[int64]string{}
	record := func(body []byte) {
		var rep SlackReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Errorf("bad /slack body: %v", err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := byEpoch[rep.Epoch]; ok && prev != string(body) {
			t.Errorf("epoch %d served two different /slack bodies:\n%s\nvs\n%s", rep.Epoch, prev, body)
		}
		byEpoch[rep.Epoch] = string(body)
	}

	const readers = 4
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				code, body := get(t, hs.URL, "/slack")
				switch code {
				case http.StatusOK:
					record(body)
				case http.StatusInternalServerError, http.StatusTooManyRequests, http.StatusGatewayTimeout:
					// injected cache panic / backpressure: acceptable, retryable
				default:
					t.Errorf("reader %d: unexpected /slack status %d: %s", id, code, body)
				}
				if j%3 == 0 {
					get(t, hs.URL, "/endpoints?limit=3")
					get(t, hs.URL, "/paths?k=2")
				}
			}
		}(i)
	}
	// The writer ping-pongs one cell between two masters. Injected
	// resolve faults 500 individual commits; those must leave no trace.
	wg.Add(1)
	go func() {
		defer wg.Done()
		target := to
		for j := 0; j < 12; j++ {
			code, body := post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: target}))
			switch code {
			case http.StatusOK:
				if target == to {
					target = oldType
				} else {
					target = to
				}
			case http.StatusInternalServerError:
				if !strings.Contains(string(body), "injected fault") {
					t.Errorf("writer: unexpected 500: %s", body)
				}
			default:
				t.Errorf("writer: unexpected /eco status %d: %s", code, body)
			}
		}
	}()
	wg.Wait()

	if code, body := get(t, hs.URL, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("server unhealthy after chaos: %d %s", code, body)
	}
	if hook.delays.Load() == 0 || hook.errs.Load() == 0 || hook.panics.Load() == 0 {
		t.Fatalf("fault schedule incomplete: delays=%d errs=%d panics=%d (raise load if this fires)",
			hook.delays.Load(), hook.errs.Load(), hook.panics.Load())
	}
	if len(byEpoch) < 2 {
		t.Fatalf("load produced only %d distinct epochs; commits did not interleave with reads", len(byEpoch))
	}
}

// cellType reads a cell's current master from the shared fixture design.
func cellType(t testing.TB, name string) string {
	t.Helper()
	_, _, d := fixture(t)
	for _, c := range d.Cells {
		if c.Name == name {
			return c.TypeName
		}
	}
	t.Fatalf("cell %q not in fixture", name)
	return ""
}

// TestChaosCommitPanicRecovers injects a panic just before a commit
// publishes: the session was edited and re-timed, so the recovery undoes the
// edits and re-runs every analyzer. The commit is a clean 500, the epoch does
// not move, the server stays healthy and the next commit lands at epoch 1 —
// and every read answers what a never-faulted server answers.
func TestChaosCommitPanicRecovers(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	s, hs := newTestServer(t, func(c *Config) {
		c.Hooks = &Hooks{Fire: func(site FaultSite) error {
			if site == SiteCommitSwap && armed.Swap(false) {
				panic("injected pre-publish panic")
			}
			return nil
		}}
	})
	_, never := newTestServer(t, nil)
	cell, to := resizeTarget(t)
	eco := opsJSON(Op{Kind: "resize", Cell: cell, To: to})

	code, body := post(t, hs.URL, "/eco", eco)
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "recovered panic") {
		t.Fatalf("want recovered panic answer: %d %s", code, body)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("failed commit must not bump the epoch: got %d", got)
	}
	if code, body := get(t, hs.URL, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("a recovered panic must not degrade: %d %s", code, body)
	}
	sameReads := func() {
		t.Helper()
		for _, path := range []string{"/slack", "/endpoints?limit=50", "/paths?k=5"} {
			_, got := get(t, hs.URL, path)
			_, want := get(t, never.URL, path)
			if !bytes.Equal(got, want) {
				t.Errorf("%s after a recovered panic:\n%s\nnever-faulted server:\n%s", path, got, want)
			}
		}
	}
	sameReads()
	_, got := post(t, hs.URL, "/eco", eco)
	_, want := post(t, never.URL, "/eco", eco)
	if !bytes.Equal(got, want) || s.Epoch() != 1 {
		t.Fatalf("/eco after a recovered panic (epoch %d):\n%s\nnever-faulted server:\n%s", s.Epoch(), got, want)
	}
	sameReads()
}

// TestChaosRecoveryPanicDegrades makes the recovery itself panic. Only then
// is the session's state unknown: the server degrades, refuses writes and
// cold reads with 503, and still answers what it had already cached.
func TestChaosRecoveryPanicDegrades(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) {
		c.Hooks = &Hooks{Fire: func(site FaultSite) error {
			if site == SiteCommitSwap || site == SiteCommitRecover {
				panic("injected panic at " + string(site))
			}
			return nil
		}}
	})
	cell, to := resizeTarget(t)
	_, cached := get(t, hs.URL, "/slack")

	code, body := post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "recovered panic") {
		t.Fatalf("want recovered panic answer: %d %s", code, body)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("failed commit must not bump the epoch: got %d", got)
	}
	if code, body := get(t, hs.URL, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"degraded":true`) {
		t.Fatalf("want degraded health after a failed recovery: %d %s", code, body)
	}
	for _, req := range []struct{ method, path string }{
		{"POST", "/eco"}, {"POST", "/whatif"}, {"GET", "/endpoints?limit=3"}, {"GET", "/paths?k=2"},
	} {
		if req.method == "POST" {
			code, body = post(t, hs.URL, req.path, opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
		} else {
			code, body = get(t, hs.URL, req.path)
		}
		if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
			t.Errorf("degraded server answered %s %s with %d %s, want 503", req.method, req.path, code, body)
		}
	}
	if code, body := get(t, hs.URL, "/slack"); code != http.StatusOK || !bytes.Equal(body, cached) {
		t.Fatalf("a cached read must still answer its pre-fault bytes: %d %s", code, body)
	}
}

// TestChaosErrorBeforeApplyIsClean injects a plain error between resolve
// and apply: nothing was mutated, so the commit fails cleanly, the server
// stays healthy, and the next commit goes through with the next epoch.
func TestChaosErrorBeforeApplyIsClean(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	s, hs := newTestServer(t, func(c *Config) {
		c.Hooks = &Hooks{Fire: func(site FaultSite) error {
			if site == SiteCommitApply && armed.Swap(false) {
				return fmt.Errorf("injected apply fault")
			}
			return nil
		}}
	})
	cell, to := resizeTarget(t)

	code, body := post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "injected apply fault") {
		t.Fatalf("want injected fault surfaced: %d %s", code, body)
	}
	if code, body := get(t, hs.URL, "/healthz"); !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("clean pre-apply failure must not degrade: %d %s", code, body)
	}
	code, body = post(t, hs.URL, "/eco", opsJSON(Op{Kind: "resize", Cell: cell, To: to}))
	if code != http.StatusOK {
		t.Fatalf("retry after clean failure: %d %s", code, body)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
}

// TestChaosCloseDrains closes the server while a slow injected delay is
// in flight: Close must wait for the admitted job, and requests arriving
// after the close gate must answer 503, not hang or crash.
func TestChaosCloseDrains(t *testing.T) {
	inFlight := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	s, hs := newTestServer(t, func(c *Config) {
		c.Hooks = &Hooks{Fire: func(site FaultSite) error {
			if site == SiteCacheGet {
				once.Do(func() {
					inFlight <- struct{}{}
					<-release
				})
			}
			return nil
		}}
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		get(t, hs.URL, "/slack") // parks inside the hook
	}()
	<-inFlight

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a query was still in flight")
	case <-time.After(30 * time.Millisecond):
	}

	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain after the slow query finished")
	}
	<-done

	code, body := get(t, hs.URL, "/slack")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-close request: %d %s, want 503", code, body)
	}
}
