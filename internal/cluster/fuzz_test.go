package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"newgame/internal/timingd"
)

// The fuzz cluster — a coordinator fronting two scenario shards on real
// loopback listeners — is shared across iterations and never closed: the
// HTTP surface is what is under test, and /eco barriers landing between
// arbitrary reads is exactly the traffic a coordinator sees.
var (
	fuzzOnce  sync.Once
	fuzzFront http.Handler
)

func fuzzCoordinator(t testing.TB) http.Handler {
	t.Helper()
	fuzzOnce.Do(func() {
		f := testFixture(t)
		c, err := New(Config{
			Scenarios: f.names, HeartbeatInterval: time.Hour,
			ShardTimeout: 5 * time.Second, RetryDelay: time.Millisecond, Seed: 42,
		})
		if err != nil {
			t.Fatalf("fuzz coordinator: %v", err)
		}
		for i, name := range f.names {
			srv, err := timingd.NewServer(workerConfig(t, []string{name}))
			if err != nil {
				t.Fatalf("fuzz worker: %v", err)
			}
			_, err = c.register(t.Context(), RegisterRequest{
				ID: fmt.Sprintf("w%d", i), URL: httptest.NewServer(srv).URL,
				Epoch: srv.Epoch(), Scenarios: srv.ScenarioSet(),
			})
			if err != nil {
				t.Fatalf("fuzz register: %v", err)
			}
		}
		fuzzFront = c.Handler()
	})
	return fuzzFront
}

// FuzzCoordinatorHandlers throws arbitrary HTTP traffic at the coordinator
// mux, in FuzzHandlers' encoding: method, request target and body as three
// newline-separated sections. No input may panic a handler (the spine
// would answer 500, which is not in the known set), every status is one
// the coordinator documents (or the mux's own 301/404), every reply
// labelled JSON is JSON, and every
// route mounted on the spine echoes the caller's trace ID.
func FuzzCoordinatorHandlers(f *testing.F) {
	for _, seed := range []string{
		"GET\n/slack\n",
		"GET\n/slack?debug=trace\n",
		"GET\n/endpoints?scenario=nope&limit=3\n",
		"GET\n/endpoints?kind=hold&limit=-1\n",
		"GET\n/paths?k=2&kind=setup\n",
		"GET\n/paths?k=0\n",
		"GET\n/endpoints?limit=007&kind=bogus\n",
		"GET\n/triage?k=0\n",
		"GET\n/triage?window=NaN\n",
		"GET\n/triage?window=Inf\n",
		"GET\n/triage/extract?scenario=func_ss_cw&window=nan\n",
		"GET\n/healthz\n",
		"GET\n/metrics?format=prom\n",
		"GET\n/debug/requests?limit=x\n",
		"GET\n/debug/barriers\n",
		"PUT\n/eco\n{}",
		"POST\n/eco\n{\"ops\":[]}",
		"POST\n/whatif\n{\"ops\":[{\"kind\":\"resize\",\"cell\":\"nope\",\"to\":\"X\"}]}",
		"POST\n/whatif\n{\"ops\":[{\"bogus\":1}]}",
		"POST\n/cluster/register\n{\"id\":\"w9\",\"url\":\"http://127.0.0.1:1\",\"scenarios\":[]}",
		"POST\n/cluster/heartbeat\n{\"id\":\"ghost\",\"epoch\":3}",
		"GET\n/nowhere\n",
	} {
		f.Add([]byte(seed))
	}
	known := map[int]bool{200: true, 301: true, 400: true, 404: true, 405: true, 409: true, 413: true, 502: true, 503: true, 504: true}
	spineRoutes := map[string]bool{
		"/healthz": true, "/slack": true, "/endpoints": true, "/paths": true, "/triage": true,
		"/whatif": true, "/eco": true, "/cluster/register": true, "/cluster/heartbeat": true,
		"/debug/barriers": true,
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		parts := strings.SplitN(string(raw), "\n", 3)
		if len(parts) < 2 {
			return
		}
		method, target := parts[0], parts[1]
		var body string
		if len(parts) == 3 {
			body = parts[2]
		}
		if !strings.HasPrefix(target, "/") {
			target = "/" + target
		}
		req, err := http.NewRequest(method, "http://fuzz.local"+target, strings.NewReader(body))
		if err != nil {
			return // unrepresentable as HTTP; nothing to serve
		}
		req.Header.Set("X-Trace-Id", "f00dfeedf00dfeed")
		rec := httptest.NewRecorder()
		fuzzCoordinator(t).ServeHTTP(rec, req)
		res := rec.Result()
		if !known[res.StatusCode] {
			t.Fatalf("%s %s: status %d outside the known set: %q", method, target, res.StatusCode, clip(rec.Body.Bytes()))
		}
		if strings.HasPrefix(res.Header.Get("Content-Type"), "application/json") &&
			!json.Valid(bytes.TrimSpace(rec.Body.Bytes())) {
			t.Fatalf("%s %s: %d labelled JSON but is not: %q", method, target, res.StatusCode, clip(rec.Body.Bytes()))
		}
		if spineRoutes[req.URL.Path] && res.Header.Get("X-Trace-Id") != "f00dfeedf00dfeed" {
			t.Fatalf("%s %s: trace ID not echoed (%q)", method, target, res.Header.Get("X-Trace-Id"))
		}
	})
}
