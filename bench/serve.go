package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"newgame/internal/cluster"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/pack"
	"newgame/internal/timingd"
	"newgame/internal/timingd/client"
)

// listener serves one handler on a real loopback TCP socket.
type listener struct {
	hs  *http.Server
	url string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go l.hs.Serve(ln) // returns once close() shuts the server down
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
}

// target is a booted system under test: a single node, or a coordinator
// in front of scenario shards. Clients talk to url; front is the same
// surface without a socket, which the layer probes time directly.
type target struct {
	url    string
	front  http.Handler
	shards []*timingd.Server // the node itself, or the cluster's workers
	design *netlist.Design   // the unedited design every shard booted from
	coord  *cluster.Coordinator

	closers []func()

	// Set-up stages, for the per-layer set-up metrics.
	blockDur, bootDur, restoreDur, registerDur, packSaveDur time.Duration
	packPath                                                string
}

func (t *target) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

func (t *target) serve(srv *timingd.Server) (*listener, error) {
	l, err := listen(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	t.shards = append(t.shards, srv)
	t.closers = append(t.closers, l.close, srv.Close)
	return l, nil
}

// setupNode boots one timingd over the serving design. rec is nil for
// end-to-end runs.
func setupNode(fx *fixture, sc scale, rec *obs.Recorder) (*target, error) {
	t := &target{}
	start := time.Now()
	t.design = sc.serve(fx.lib)
	t.blockDur = time.Since(start)

	cfg := fx.serverConfig()
	cfg.Design, cfg.Obs = t.design, rec
	start = time.Now()
	srv, err := timingd.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	t.bootDur = time.Since(start)
	l, err := t.serve(srv)
	if err != nil {
		return nil, err
	}
	t.url, t.front = l.url, srv
	return t, nil
}

// setupCluster boots a coordinator and two scenario shards (two scenarios
// each). As in a real deployment the shards restore from one pack: the
// harness boots a throw-away full node, saves it, and each worker loads
// the file for itself.
func setupCluster(fx *fixture, sc scale, rec *obs.Recorder, dir string) (t *target, err error) {
	t = &target{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	start := time.Now()
	t.design = sc.serve(fx.lib)
	t.blockDur = time.Since(start)

	cfg := fx.serverConfig()
	cfg.Design, cfg.SnapshotDir = t.design, dir
	start = time.Now()
	seed, err := timingd.NewServer(cfg)
	if err != nil {
		return t, err
	}
	t.bootDur = time.Since(start)
	start = time.Now()
	save, err := postJSON[timingd.SaveReport](seed, "/admin/save", struct{}{})
	seed.Close()
	if err != nil {
		return t, fmt.Errorf("saving pack: %w", err)
	}
	t.packSaveDur, t.packPath = time.Since(start), save.Path

	names := fx.scenarioNames()
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	t.closers = append(t.closers, hc.CloseIdleConnections)
	t.coord, err = cluster.New(cluster.Config{
		Scenarios: names, Obs: rec, HTTP: hc, Seed: designSeed,
		// The harness registers workers itself and none ever dies, so the
		// liveness sweeper must not evict them for not heartbeating.
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		return t, err
	}
	t.closers = append(t.closers, func() { t.coord.Close() })
	cl, err := listen(t.coord.Handler())
	if err != nil {
		return t, err
	}
	t.closers = append(t.closers, cl.close)
	t.url, t.front = cl.url, t.coord.Handler()

	half := len(names) / 2
	for i, filter := range [][]string{names[:half], names[half:]} {
		start = time.Now()
		snap, err := pack.Load(save.Path)
		if err != nil {
			return t, err
		}
		wcfg := timingd.Config{
			Workers: nproc, QueryWorkers: nproc, QueueDepth: 256, Obs: rec,
			Restore: snap, RestorePath: save.Path,
			ScenarioFilter: filter, Role: "worker",
		}
		srv, err := timingd.NewServer(wcfg)
		if err != nil {
			return t, err
		}
		t.restoreDur += time.Since(start)
		wl, err := t.serve(srv)
		if err != nil {
			return t, err
		}
		start = time.Now()
		_, err = postJSON[cluster.RegisterResponse](t.front, "/cluster/register", cluster.RegisterRequest{
			ID: fmt.Sprintf("w%d", i), URL: wl.url, Epoch: srv.Epoch(), Scenarios: srv.ScenarioSet(),
		})
		if err != nil {
			return t, fmt.Errorf("registering shard %d: %w", i, err)
		}
		t.registerDur += time.Since(start)
	}
	return t, nil
}

// call drives a handler in memory — no socket, no client — and returns the
// status and body. The probes use it to time a layer without the wire.
func call(h http.Handler, method, uri string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, uri, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func getJSON[T any](h http.Handler, uri string) (T, error) {
	var out T
	code, body := call(h, http.MethodGet, uri, nil)
	if code != http.StatusOK {
		return out, fmt.Errorf("GET %s: %d %s", uri, code, bytes.TrimSpace(body))
	}
	return out, json.Unmarshal(body, &out)
}

func postJSON[T any](h http.Handler, uri string, in any) (T, error) {
	var out T
	b, err := json.Marshal(in)
	if err != nil {
		return out, err
	}
	code, body := call(h, http.MethodPost, uri, b)
	if code != http.StatusOK {
		return out, fmt.Errorf("POST %s: %d %s", uri, code, bytes.TrimSpace(body))
	}
	return out, json.Unmarshal(body, &out)
}

// opsBody is the request body of /whatif and /eco.
type opsBody struct {
	Ops []timingd.Op `json:"ops"`
}

// clientsLive and clientsPeak count open client connections, one per
// client goroutine, for the generator-honesty check: a workload may not
// have more than clientLimit of them at once.
var clientsLive, clientsPeak atomic.Int32

func clientStarted() {
	n := clientsLive.Add(1)
	for p := clientsPeak.Load(); n > p && !clientsPeak.CompareAndSwap(p, n); p = clientsPeak.Load() {
	}
}

// wire is one client goroutine's connection: the repo's own client over a
// private transport holding exactly one keep-alive connection. tap keeps
// the last response body so callers can check bytes, not just decoded
// fields.
type wire struct {
	*client.Client
	tap *tapTransport
}

type tapTransport struct {
	base *http.Transport
	body []byte
	// traceTag, when set, stamps X-Trace-Id so the server's flight
	// recorder and the harness span of one request share an identifier.
	traceTag string
	reqs     int
}

func (t *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.reqs++
	if t.traceTag != "" {
		req.Header.Set("X-Trace-Id", fmt.Sprintf("%s-%d", t.traceTag, t.reqs))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(t.body))
	return resp, nil
}

func newWire(base, traceTag string) *wire {
	clientStarted()
	tap := &tapTransport{
		base:     &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		traceTag: traceTag,
	}
	c := client.New(base)
	c.HTTP = &http.Client{Transport: tap}
	// 429 means "not executed": retry a few times before counting the
	// request as failed.
	c.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxElapsed: 3 * time.Second}
	return &wire{Client: c, tap: tap}
}

func (w *wire) close() {
	clientsLive.Add(-1)
	w.tap.base.CloseIdleConnections()
}

// get fetches a URI the typed client has no method for (/triage).
func (w *wire) get(ctx context.Context, uri string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Base+uri, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", uri, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// scratchDir makes a private directory under bench/out for packs and
// epoch logs; the benchmark writes nowhere else.
func scratchDir() (string, func(), error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", nil, err
	}
	return abs, func() { os.RemoveAll(abs) }, nil
}
