package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"

	"newgame/internal/obs"
	"newgame/internal/timingd"
)

// corruptingTransport hands the coordinator bad bytes in place of every 200
// one member (host) sends on a path in bad, keeping the status and the
// headers: a member whose encoder is broken.
type corruptingTransport struct {
	host atomic.Value // string
	bad  map[string]func(body []byte) []byte
}

func (t *corruptingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	corrupt, host := t.bad[r.URL.Path], t.host.Load()
	if err != nil || corrupt == nil || r.URL.Host != host || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	b = corrupt(b)
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(b)), int64(len(b))
	return resp, nil
}

// A member that answers 200 with bytes that are not what the route promises
// — not JSON on a proxied read, an extract reply cut short on /triage — is a
// failed member: the coordinator asks the replica and answers what a single
// node does, forwarding none of the bad member's bytes.
func TestFaultyMemberFallsBack(t *testing.T) {
	f := testFixture(t)
	rec := obs.NewRecorder()
	const junk = "<html>502 from a proxy in the way</html>\n"
	tr := &corruptingTransport{bad: map[string]func([]byte) []byte{
		"/paths":          func([]byte) []byte { return []byte(junk) },
		"/endpoints":      func(b []byte) []byte { return b[:len(b)-2] },
		"/triage/extract": func(b []byte) []byte { return b[:len(b)/2] },
	}}
	tr.host.Store("")
	c, chs := startCoordinator(t, func(c *Config) {
		c.Obs = rec
		c.HTTP = &http.Client{Transport: tr}
	})
	hosts := map[string]string{}
	for i, filter := range [][]string{nil, {f.names[0]}, {f.names[1]}} {
		id := fmt.Sprintf("w%d", i)
		srv, hs := startWorker(t, filter, nil)
		registerWorker(t, chs.URL, id, srv, hs.URL)
		hosts[id] = hs.Listener.Addr().String()
	}
	_, single := startWorker(t, nil, nil)
	tr.host.Store(hosts[primaryOf(c, 0)])

	for _, target := range []string{
		"/paths?scenario=" + f.names[0] + "&kind=setup&k=3",
		"/endpoints?scenario=" + f.names[0] + "&kind=hold&limit=4",
		"/triage",
		"/triage?k=1",
	} {
		last := rec.Counter("cluster.proxy.replica_retries").Value()
		code, body := getT(t, chs.URL+target)
		_, want := getT(t, single.URL+target)
		if code != 200 || !bytes.Equal(body, want) {
			t.Errorf("%s with a faulty primary: %d %s\nwant the single node's %s", target, code, clip(body), clip(want))
		}
		if got := rec.Counter("cluster.proxy.replica_retries").Value() - last; got != 1 {
			t.Errorf("%s bumped cluster.proxy.replica_retries by %d, want 1", target, got)
		}
	}
}

// What a cold coordinator read costs the process, on a sharded pair of the
// fixture at a 380 ps period (18 violations): its two workers render and
// encode, the coordinator forwards /paths as the worker sent it and decodes
// each /triage leg's one pack/wire reply before merging. Each request
// differs from the last in a knob's spelling alone (k=03, k=003, …), so it
// misses every cache and does the same work. The least of five requests is
// kept: other goroutines allocate too.
func TestColdReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	f := testFixture(t)
	_, chs := startCoordinator(t, nil)
	for i, name := range f.names {
		srv, hs := startWorker(t, []string{name}, func(c *timingd.Config) { c.BasePeriod = 380 })
		registerWorker(t, chs.URL, fmt.Sprintf("w%d", i), srv, hs.URL)
	}
	for _, rt := range []struct {
		target string
		budget uint64
	}{
		{"/triage?k=%s3", coldTriageBudget},
		{"/paths?scenario=" + f.names[1] + "&kind=setup&k=%s20", coldPathsBudget},
	} {
		least, pad := ^uint64(0), ""
		for range 5 {
			pad += "0"
			target := fmt.Sprintf(rt.target, pad)
			var code int
			var body []byte
			n := allocBytes(func() { code, body = getT(t, chs.URL+target) })
			if code != 200 {
				t.Fatalf("%s: %d %s", target, code, clip(body))
			}
			least = min(least, n)
		}
		t.Logf("%s: %d B allocated, budget %d", rt.target, least, rt.budget)
		if least > rt.budget {
			t.Errorf("cold %s allocates %d B, want at most %d", rt.target, least, rt.budget)
		}
	}
}

// The cold-read budgets (TestColdReadAllocations). Measured at amd64:
// /triage 162 KB and /paths 83 KB. A coordinator that decodes every member
// reply as JSON and re-encodes what it forwards costs 201 KB and 107 KB.
const coldTriageBudget, coldPathsBudget = 180 << 10, 95 << 10

// allocBytes reports the bytes the process allocates while fn runs.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
