package timingd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The fuzz server is shared across iterations — building the MCMM session
// dominates setup, and the HTTP surface is what's under test, not epoch
// history. /eco commits do mutate it, which is deliberate: interleaving
// writes with arbitrary reads is exactly the traffic a resident daemon
// sees.
var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
)

func fuzzServer(t testing.TB) *Server {
	t.Helper()
	fuzzSrvOnce.Do(func() {
		cfg := testConfig(t)
		cfg.RequestTimeout = 5 * time.Second
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("fuzz server: %v", err)
		}
		fuzzSrv = s // intentionally never closed: lives for the process
	})
	return fuzzSrv
}

// FuzzHandlers throws arbitrary HTTP traffic at the timingd mux. The raw
// fuzz input encodes one request as three newline-separated sections:
// method, request target, body. The contract: no input may panic a
// handler, every response carries a real HTTP status, and anything
// labelled application/json must actually be JSON — malformed op scripts,
// out-of-range ids and limits, and garbage targets all answer with a
// structured 4xx, never a crash or an empty 200. The fuzz server has no
// fault hooks, so a /whatif or /eco whose body decodes as an op list never
// answers 500: resolve refuses every batch apply would fail on.
func FuzzHandlers(f *testing.F) {
	dir := filepath.Join("testdata", "corpus", "handlers")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("seed corpus %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
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
		s := fuzzServer(t)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		res := rec.Result()
		if res.StatusCode < 200 || res.StatusCode > 599 {
			t.Fatalf("%s %s: impossible status %d", method, target, res.StatusCode)
		}
		if p := req.URL.Path; req.Method == http.MethodPost && (p == "/whatif" || p == "/eco") &&
			res.StatusCode == http.StatusInternalServerError && json.Unmarshal([]byte(body), &OpsBody{}) == nil {
			t.Fatalf("%s %s: 500 for a decodable op list %q: %q", method, target, clipBody(body), clipBody(rec.Body.String()))
		}
		if ct := res.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
			if !json.Valid(bytes.TrimSpace(rec.Body.Bytes())) {
				t.Fatalf("%s %s: %d with Content-Type json but invalid body: %q",
					method, target, res.StatusCode, clipBody(rec.Body.String()))
			}
		}
	})
}

func clipBody(s string) string {
	if len(s) > 500 {
		return s[:500] + "…"
	}
	return s
}
