package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"newgame/internal/obs"
)

func TestCacheKeyStripsDebug(t *testing.T) {
	for target, want := range map[string]string{
		"/slack":                          "/slack",
		"/slack?debug=trace":              "/slack",
		"/paths?k=3&debug=trace":          "/paths?k=3",
		"/paths?debug=trace&k=3&kind=a":   "/paths?k=3&kind=a",
		"/paths?k=3&debugger=1":           "/paths?k=3&debugger=1",
		"/endpoints?scenario=a%20b&debug": "/endpoints?scenario=a%20b",
	} {
		if got := CacheKey(httptest.NewRequest(http.MethodGet, target, nil)); got != want {
			t.Errorf("CacheKey(%s) = %q, want %q", target, got, want)
		}
	}
}

func TestCacheLRUAndPurge(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "/a", []byte("a"))
	c.Put(1, "/b", []byte("b"))
	c.Get(1, "/a") // /b is now least recent
	c.Put(1, "/c", []byte("c"))
	if _, ok := c.Get(1, "/b"); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, ok := c.Get(2, "/a"); ok {
		t.Fatal("hit across epochs")
	}
	if b, ok := c.Get(1, "/a"); !ok || string(b) != "a" {
		t.Fatalf("lost /a: %q %v", b, ok)
	}
	if n := c.Purge(); n != 2 {
		t.Fatalf("purged %d entries, want 2", n)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("stats %d/%d, want 2/2", hits, misses)
	}
}

// The wrapper's error mapping: Error carries its status (429 adds
// Retry-After), anything else — a panic included — answers 500, and every
// outcome lands in the flight ring and the per-route counters.
func TestHandleMapsErrors(t *testing.T) {
	sp := &Spine{NS: "t", Obs: obs.NewRecorder(), Requests: obs.NewRing[obs.RequestRecord](8), Cache: NewCache(1)}
	bodies := map[string]Func{
		"/full":  func(context.Context, *http.Request) ([]byte, error) { return nil, Errorf(429, "request queue full") },
		"/panic": func(context.Context, *http.Request) ([]byte, error) { panic("boom") },
		"/ok": func(ctx context.Context, _ *http.Request) ([]byte, error) {
			InfoFrom(ctx).Epoch = 7
			return JSON(map[string]int{"x": 1})
		},
	}
	mux := http.NewServeMux()
	for pattern, fn := range bodies {
		mux.HandleFunc(pattern, sp.Handle(strings.TrimPrefix(pattern, "/"), http.MethodGet, fn))
	}
	for _, tc := range []struct {
		target string
		status int
		body   string
	}{
		{"/full", 429, `{"error":"request queue full"}` + "\n"},
		{"/panic", 500, `{"error":"internal panic: boom"}` + "\n"},
		{"/ok", 200, `{"x":1}` + "\n"},
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, tc.target, nil))
		if w.Code != tc.status || w.Body.String() != tc.body {
			t.Fatalf("%s: %d %q, want %d %q", tc.target, w.Code, w.Body.String(), tc.status, tc.body)
		}
		if got := w.Header().Get("Retry-After"); (got == "1") != (tc.status == 429) {
			t.Fatalf("%s: Retry-After %q", tc.target, got)
		}
		if w.Header().Get("X-Trace-Id") == "" || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: headers %v", tc.target, w.Header())
		}
	}
	recs := sp.Requests.Snapshot(0)
	if len(recs) != 3 || recs[0].Route != "ok" || recs[0].Epoch != 7 || recs[1].Epoch != -1 || recs[1].Status != 500 {
		t.Fatalf("flight ring %+v", recs)
	}
	if n := sp.Obs.Counter("t.panics_recovered").Value(); n != 1 {
		t.Fatalf("panics_recovered = %d", n)
	}
	if n := sp.Obs.Counter("t.full.errors").Value(); n != 1 {
		t.Fatalf("t.full.errors = %d", n)
	}
}

// A finished body goes out with its length — the traced envelope's, when the
// request asked for one — so a reply past net/http's 2 KB sniff buffer is
// not chunked and a client can size its read.
func TestHandleAnnouncesContentLength(t *testing.T) {
	sp := &Spine{NS: "t", Requests: obs.NewRing[obs.RequestRecord](8), Cache: NewCache(1)}
	big, _ := JSON(map[string]string{"pad": strings.Repeat("x", 10<<10)})
	hs := httptest.NewServer(sp.Handle("big", http.MethodGet, func(context.Context, *http.Request) ([]byte, error) {
		return big, nil
	}))
	defer hs.Close()
	for _, target := range []string{"/", "/?debug=trace"} {
		resp, err := http.Get(hs.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: %d %v", target, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				target, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if (target == "/") != bytes.Equal(body, big) {
			t.Errorf("%s: body is %d bytes, the plain one %d", target, len(body), len(big))
		}
	}
}

// A pack/wire body goes out as the route made it, as
// application/octet-stream and with its X-Epoch, and ?debug=trace does not
// wrap it; an error reply carries no X-Epoch though its body set one.
func TestHandleBinaryBody(t *testing.T) {
	sp := &Spine{NS: "t", Requests: obs.NewRing[obs.RequestRecord](8), Cache: NewCache(1)}
	bin := []byte{0, 1, '{', 0xff}
	h := sp.Handle("bin", http.MethodGet, func(ctx context.Context, r *http.Request) ([]byte, error) {
		info := InfoFrom(ctx)
		info.Binary, info.Epoch = true, 3
		if r.URL.Query().Has("fail") {
			return nil, BadRequest("no")
		}
		return bin, nil
	})
	for _, target := range []string{"/", "/?debug=trace", "/?fail"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		epoch, hasEpoch := w.Header()["X-Epoch"]
		if target == "/?fail" {
			if w.Code != 400 || hasEpoch {
				t.Errorf("%s: %d, X-Epoch %v", target, w.Code, epoch)
			}
			continue
		}
		if w.Code != 200 || !bytes.Equal(w.Body.Bytes(), bin) || w.Header().Get("Content-Type") != "application/octet-stream" || w.Header().Get("X-Epoch") != "3" {
			t.Errorf("%s: %d %q, headers %v", target, w.Code, w.Body.Bytes(), w.Header())
		}
	}
}

func TestDecodeBounds(t *testing.T) {
	var v struct {
		A string `json:"a"`
	}
	status := func(body string) int {
		err := Decode(httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), &v)
		if err == nil {
			return 200
		}
		return err.(*Error).Status
	}
	if got := status(`{"a":"x"}`); got != 200 || v.A != "x" {
		t.Fatalf("good body: %d %+v", got, v)
	}
	if got := status(`{"b":1}`); got != 400 {
		t.Fatalf("unknown field: %d", got)
	}
	big, _ := json.Marshal(map[string]string{"a": strings.Repeat("x", MaxBody)})
	if got := status(string(big)); got != 413 {
		t.Fatalf("oversize body: %d", got)
	}
}
