package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"newgame/internal/obs"
	"newgame/internal/serve"
	"newgame/internal/timingd"
)

// spineMount is one role under the conformance table: its base URL, its
// metric namespace, every route that reads a request body and, for the
// coordinator, the shards behind it in scenario order.
type spineMount struct {
	role, base, ns string
	bodyRoutes     []string
	shards         []string
}

// spineMounts boots an in-process worker and an in-process coordinator
// fronting two scenario shards, both recording metrics.
func spineMounts(t *testing.T) []spineMount {
	t.Helper()
	f := testFixture(t)
	_, whs := startWorker(t, nil, func(c *timingd.Config) { c.Obs = obs.NewRecorder() })
	_, chs := startCoordinator(t, func(c *Config) { c.Obs = obs.NewRecorder() })
	var shards []string
	for i := range f.names {
		srv, hs := startWorker(t, []string{f.names[i]}, nil)
		registerWorker(t, chs.URL, fmt.Sprintf("w%d", i), srv, hs.URL)
		shards = append(shards, hs.URL)
	}
	return []spineMount{
		{"worker", whs.URL, "timingd",
			[]string{"/whatif", "/eco", "/cluster/prepare", "/cluster/commit", "/cluster/abort"}, nil},
		{"coordinator", chs.URL, "cluster",
			[]string{"/whatif", "/eco", "/cluster/register", "/cluster/heartbeat"}, shards},
	}
}

// do sends one request and returns the status, the echoed X-Trace-Id and
// the body.
func do(t *testing.T, method, url, traceID string, body io.Reader) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Trace-Id"), b
}

// wantError asserts a status and the uniform {"error":…} envelope.
func wantError(t *testing.T, what string, code, want int, body []byte) string {
	t.Helper()
	var env struct {
		Error string `json:"error"`
	}
	if code != want || json.Unmarshal(body, &env) != nil || env.Error == "" {
		t.Fatalf("%s: got %d %q, want %d with an error envelope", what, code, clip(body), want)
	}
	return env.Error
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return b[:300]
	}
	return b
}

func hasSpan(nodes []obs.SpanNode, name string) bool {
	for _, n := range nodes {
		if n.Name == name || hasSpan(n.Children, name) {
			return true
		}
	}
	return false
}

// newestRequest returns the flight record carrying traceID.
func newestRequest(t *testing.T, base, traceID string) obs.RequestRecord {
	t.Helper()
	_, _, body := do(t, http.MethodGet, base+"/debug/requests", "", nil)
	var rep serve.DebugRequestsReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/debug/requests: %v in %q", err, clip(body))
	}
	for _, rec := range rep.Requests {
		if rec.TraceID == traceID {
			return rec
		}
	}
	t.Fatalf("/debug/requests does not list trace %s (%d records)", traceID, len(rep.Requests))
	return obs.RequestRecord{}
}

// TestSpineConformance holds a timingd node and a coordinator to the same
// table: whatever the serving spine promises, it promises on both mounts.
func TestSpineConformance(t *testing.T) {
	mounts := spineMounts(t)
	for _, m := range mounts {
		t.Run(m.role, func(t *testing.T) {
			// Trace identity: echoed verbatim, minted when absent.
			code, echoed, plain := do(t, http.MethodGet, m.base+"/slack", "deadbeefcafe0001", nil)
			if code != 200 || echoed != "deadbeefcafe0001" {
				t.Fatalf("/slack: %d, X-Trace-Id %q not echoed", code, echoed)
			}
			if rec := newestRequest(t, m.base, echoed); rec.Route != "slack" || rec.Cache != "miss" || rec.Epoch != 0 || rec.Status != 200 {
				t.Fatalf("first /slack flight record %+v, want route slack, cache miss, epoch 0", rec)
			}
			_, minted, _ := do(t, http.MethodGet, m.base+"/slack", "", nil)
			if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
				t.Fatalf("minted X-Trace-Id %q is not 16 hex digits", minted)
			}

			// ?debug=trace wraps the plain body, and reads the cache entry
			// the plain read left: a hit, so nothing is rendered again.
			code, echoed, body := do(t, http.MethodGet, m.base+"/slack?debug=trace", "feedface00000042", nil)
			var env serve.TraceReport
			if code != 200 || json.Unmarshal(body, &env) != nil {
				t.Fatalf("traced /slack: %d %q", code, clip(body))
			}
			if env.TraceID != "feedface00000042" || echoed != env.TraceID || len(env.Spans) == 0 {
				t.Fatalf("trace envelope id %q header %q spans %d", env.TraceID, echoed, len(env.Spans))
			}
			if env.Spans[0].Name != m.ns+".slack" {
				t.Fatalf("root span %q, want %s.slack", env.Spans[0].Name, m.ns)
			}
			if !bytes.Equal(env.Response, bytes.TrimRight(plain, "\n")) {
				t.Fatalf("traced response differs from the plain body:\n%s\n%s", clip(env.Response), clip(plain))
			}
			if hasSpan(env.Spans, "render") {
				t.Fatal("traced read of a cached answer shows a render span the plain read never pays")
			}
			if rec := newestRequest(t, m.base, env.TraceID); rec.Cache != "hit" || rec.Epoch != 0 {
				t.Fatalf("traced read's flight record %+v, want cache hit at epoch 0", rec)
			}

			// Method check.
			code, _, body = do(t, http.MethodPost, m.base+"/slack", "", strings.NewReader("{}"))
			if msg := wantError(t, "POST /slack", code, 405, body); msg != "GET required" {
				t.Fatalf("405 message %q", msg)
			}
			code, _, body = do(t, http.MethodGet, m.base+"/eco", "", nil)
			if msg := wantError(t, "GET /eco", code, 405, body); msg != "POST required" {
				t.Fatalf("405 message %q", msg)
			}

			// Every body route refuses unknown fields and oversize bodies.
			huge := `{"ops":[{"kind":"` + strings.Repeat("x", serve.MaxBody) + `"}]}`
			for _, route := range m.bodyRoutes {
				code, echoed, body = do(t, http.MethodPost, m.base+route, "0123456789abcdef", strings.NewReader(`{"bogus":1}`))
				wantError(t, "unknown field to "+route, code, 400, body)
				if echoed != "0123456789abcdef" {
					t.Fatalf("%s: error reply dropped the trace ID (%q)", route, echoed)
				}
				code, _, body = do(t, http.MethodPost, m.base+route, "", strings.NewReader(huge))
				wantError(t, "oversize body to "+route, code, 413, body)
			}

			// Operator views.
			code, _, body = do(t, http.MethodGet, m.base+"/metrics?format=prom", "", nil)
			if want := m.ns + "_slack_requests_total"; code != 200 || !bytes.Contains(body, []byte(want)) {
				t.Fatalf("/metrics?format=prom: %d, no %s", code, want)
			}
			code, _, body = do(t, http.MethodGet, m.base+"/debug/slow?threshold_ms=0", "", nil)
			var slow serve.DebugSlowReport
			if code != 200 || json.Unmarshal(body, &slow) != nil || len(slow.Requests) == 0 {
				t.Fatalf("/debug/slow: %d %q", code, clip(body))
			}
		})
	}

	// A coordinator is a node seen through a cluster: what a node refuses, it
	// refuses in the node's words, and what a node reads leniently (an empty
	// or zero-padded knob) it reads the same way — it forwards what it was
	// sent and validates nothing a shard validates.
	node, coord := mounts[0], mounts[1]
	t.Run("parity", func(t *testing.T) {
		for _, tc := range []struct{ method, target, body string }{
			{"GET", "/endpoints?limit=0", ""},
			{"GET", "/endpoints?limit=abc", ""},
			{"GET", "/endpoints?limit=", ""},
			{"GET", "/endpoints?limit=007", ""},
			{"GET", "/endpoints?kind=bogus", ""},
			{"GET", "/endpoints?scenario=nope", ""},
			{"GET", "/paths?k=0", ""},
			{"GET", "/paths?k=1001", ""},
			{"GET", "/paths?kind=bogus", ""},
			{"GET", "/paths?scenario=nope", ""},
			{"GET", "/triage?window=NaN", ""},
			{"GET", "/triage?window=Inf", ""},
			{"GET", "/triage?window=-1", ""},
			{"POST", "/whatif", `{"ops":[]}`},
			{"POST", "/eco", `{"ops":[]}`},
		} {
			nc, _, nb := do(t, tc.method, node.base+tc.target, "", strings.NewReader(tc.body))
			cc, _, cb := do(t, tc.method, coord.base+tc.target, "", strings.NewReader(tc.body))
			if nc != cc || !bytes.Equal(bytes.TrimSpace(nb), bytes.TrimSpace(cb)) {
				t.Errorf("%s %s %s: node answers %d %q, coordinator %d %q",
					tc.method, tc.target, tc.body, nc, clip(nb), cc, clip(cb))
			}
		}
		// A triage window that is not a finite positive number is refused, not
		// read as "no window": ParseFloat accepts NaN and Inf, and NaN passes
		// every <= test. (/triage/extract is a node route; a coordinator
		// forwards the knob to it verbatim.)
		for _, target := range []string{
			"/triage?window=NaN", "/triage?window=Inf",
			"/triage/extract?scenario=" + testFixture(t).names[0] + "&window=nan",
		} {
			code, _, body := do(t, http.MethodGet, node.base+target, "", nil)
			if msg := wantError(t, target, code, 400, body); !strings.HasPrefix(msg, "bad window") {
				t.Errorf("%s: refused with %q, want the bad-window message", target, msg)
			}
		}
		// The empty /eco above was refused before any barrier began.
		_, _, body := do(t, http.MethodGet, coord.base+"/debug/barriers", "", nil)
		var rep DebugBarriersReport
		if err := json.Unmarshal(body, &rep); err != nil || len(rep.Barriers) != 0 {
			t.Fatalf("/debug/barriers after a refused empty /eco: %v %q, want no rows", err, clip(body))
		}
	})

	// Merged and proxied reads carry a node's bytes, trailing newline and
	// all: /triage, /paths and /endpoints equal the node's reply over the
	// wire, and /slack is the node's with the merge added.
	t.Run("node-bytes", func(t *testing.T) {
		f := testFixture(t)
		for _, target := range []string{"/triage", "/paths?k=3&scenario=" + f.names[1], "/endpoints?limit=4"} {
			_, _, nb := do(t, http.MethodGet, node.base+target, "", nil)
			_, _, cb := do(t, http.MethodGet, coord.base+target, "", nil)
			if !bytes.Equal(nb, cb) {
				t.Errorf("%s: node answers %q…, coordinator %q…", target, clip(nb), clip(cb))
			}
		}
		_, _, nb := do(t, http.MethodGet, node.base+"/slack", "", nil)
		_, _, cb := do(t, http.MethodGet, coord.base+"/slack", "", nil)
		if !bytes.HasSuffix(cb, []byte("}\n")) || !bytes.HasPrefix(cb, bytes.TrimSuffix(nb, []byte("}\n"))) {
			t.Errorf("/slack: coordinator's %q does not extend the node's %q", clip(cb), clip(nb))
		}
	})

	// One trace ID follows a request into the shard that served it.
	t.Run("trace-forwarded", func(t *testing.T) {
		f := testFixture(t)
		const id = "c0ffee00c0ffee01"
		code, _, body := do(t, http.MethodGet, coord.base+"/endpoints?limit=2&scenario="+f.names[1], id, nil)
		if code != 200 {
			t.Fatalf("/endpoints through the coordinator: %d %q", code, clip(body))
		}
		if rec := newestRequest(t, coord.shards[1], id); rec.Route != "endpoints" || rec.Status != 200 {
			t.Fatalf("owning shard's flight record %+v, want route endpoints under the caller's trace ID", rec)
		}
	})
}
