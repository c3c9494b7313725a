// Package serve is the request plumbing every HTTP role in this repository
// mounts its routes on — the timingd node, its cluster-barrier routes and
// the cluster coordinator. A route body is a plain function from a request
// to bytes or an error; Handle gives it a trace identity, ?debug=trace, the
// per-route counters and latency histogram, a flight-recorder entry, the
// method check, a panic boundary, the X-Epoch header and the uniform
// {"error":…} mapping. The
// spine knows nothing about who mounts it: admission control, snapshots
// and scatter-gather stay with their owners, composed around the body.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"newgame/internal/obs"
)

// Func is a route body: the response bytes (written verbatim with a 200)
// or an error, which Handle maps to a status through Error.
type Func func(ctx context.Context, r *http.Request) ([]byte, error)

// Error carries an HTTP status with a handler error. Any other error
// answers 500.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Errorf builds an Error.
func Errorf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// BadRequest is Errorf(400, …) as an error.
func BadRequest(format string, args ...any) error {
	return Errorf(http.StatusBadRequest, format, args...)
}

// Info is the per-request carrier a route body fills in for the flight
// recorder and the reply's headers: the epoch the answer came from, the
// reply-cache outcome and whether the body is binary. It rides the context
// so bodies report without their signature changing; unlike a full
// obs.Trace it costs one small allocation, so every request affords one.
// TraceID is the spine's to set: the request's identity, which outbound
// calls made on its behalf carry on (TraceIDFrom).
type Info struct {
	Epoch   int64
	Cache   string // "hit", "miss", or "" for routes that bypass the cache
	TraceID string
	Binary  bool // a pack/wire body: sent as application/octet-stream, never wrapped
}

type infoKey struct{}

// InfoFrom returns the request's Info; off the spine (a body called
// directly) it returns a throwaway, so callers never nil-check.
func InfoFrom(ctx context.Context) *Info {
	if info, ok := ctx.Value(infoKey{}).(*Info); ok {
		return info
	}
	return &Info{}
}

// TraceIDFrom returns the trace ID of the spine request ctx descends from,
// or "" off the spine. It never allocates: every outbound client call asks.
func TraceIDFrom(ctx context.Context) string {
	if info, ok := ctx.Value(infoKey{}).(*Info); ok {
		return info.TraceID
	}
	return ""
}

// TraceReport wraps a route's normal response when ?debug=trace is set:
// the request's own span tree inline next to the answer, tagged with the
// trace ID also echoed in X-Trace-Id.
type TraceReport struct {
	TraceID  string          `json:"trace_id"`
	Spans    []obs.SpanNode  `json:"spans"`
	Response json.RawMessage `json:"response"`
}

// DebugRequestsReport answers GET /debug/requests: the flight recorder's
// last requests, newest first. Dropped counts ring writes abandoned under
// extreme contention (normally zero).
type DebugRequestsReport struct {
	Requests []obs.RequestRecord `json:"requests"`
	Dropped  uint64              `json:"dropped"`
}

// DebugSlowReport answers GET /debug/slow: recorded requests at or above
// the latency threshold.
type DebugSlowReport struct {
	ThresholdMs float64             `json:"threshold_ms"`
	Requests    []obs.RequestRecord `json:"requests"`
}

// Spine is one role's mount point. NS prefixes its metric and trace names
// ("timingd", "cluster"); Obs may be nil (nothing is recorded, /metrics
// answers 404); Requests is the always-on flight ring behind
// /debug/requests and /debug/slow; Cache is the role's epoch-keyed reply
// cache, whose totals /metrics publishes.
type Spine struct {
	NS       string
	Obs      *obs.Recorder
	Requests *obs.Ring[obs.RequestRecord]
	Cache    *Cache
}

// Handle adapts a route body to HTTP. Every request gets a trace identity:
// an X-Trace-Id header is accepted verbatim or minted, and always echoed.
// With ?debug=trace the request additionally records its own private span
// tree — bodies reach it through obs.TraceFrom(ctx) — and a JSON response
// is wrapped in a TraceReport carrying that tree inline. Untraced requests
// pay only the ID, one Info allocation, and a lock-free ring write. A 200
// whose body set Info.Epoch says so in X-Epoch, so a caller that forwards
// the body learns its epoch without decoding it.
func (s *Spine) Handle(route, method string, fn Func) http.HandlerFunc {
	name := s.NS + "." + route
	requests, errs, latency := name+".requests", name+".errors", name+".latency_ms"
	fn = s.Guard(fn)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		traceID := r.Header.Get("X-Trace-Id")
		var tr *obs.Trace
		if r.URL.Query().Get("debug") == "trace" {
			tr = obs.NewTrace(traceID, name)
			traceID = tr.ID
		} else if traceID == "" {
			traceID = obs.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", traceID)
		info := &Info{Epoch: -1, TraceID: traceID}
		status := http.StatusOK
		defer func() {
			ms := obs.MsSince(start)
			s.Obs.Counter(requests).Add(1)
			if status >= 400 {
				s.Obs.Counter(errs).Add(1)
			}
			s.Obs.Histogram(latency,
				0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000).Observe(ms)
			rec := obs.RequestRecord{
				Start: start, Route: route, TraceID: traceID,
				Epoch: info.Epoch, Cache: info.Cache,
				Status: status, LatencyMs: ms,
			}
			if tr != nil {
				slowest, d := tr.Rec.SlowestSpan()
				rec.SlowestChild = slowest
				rec.SlowestChildMs = float64(d) / float64(time.Millisecond)
			}
			s.Requests.Put(rec)
		}()
		if r.Method != method {
			status = http.StatusMethodNotAllowed
			WriteError(w, status, method+" required")
			return
		}
		ctx := context.WithValue(r.Context(), infoKey{}, info)
		if tr != nil {
			ctx = obs.WithTrace(ctx, tr)
		}
		body, err := fn(ctx, r)
		if err != nil {
			status = http.StatusInternalServerError
			var e *Error
			if errors.As(err, &e) {
				status = e.Status
			}
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			WriteError(w, status, err.Error())
			return
		}
		if tr != nil {
			tr.Root.End()
		}
		if tr != nil && !info.Binary {
			env, err := json.Marshal(TraceReport{
				TraceID:  traceID,
				Spans:    tr.Rec.SpanTree(),
				Response: json.RawMessage(bytes.TrimRight(body, "\n")),
			})
			if err == nil {
				body = append(env, '\n')
			}
		}
		// The body is finished: saying how long it is spares both ends the
		// chunked framing net/http falls back to past its 2 KB sniff buffer,
		// and lets the client read it into one buffer of the right size.
		w.Header().Set("Content-Type", "application/json")
		if info.Binary {
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		if info.Epoch >= 0 {
			w.Header().Set("X-Epoch", strconv.FormatInt(info.Epoch, 10))
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}
}

// Guard puts a route body behind the panic boundary: a crash answers 500
// and the goroutine running it survives. Handle guards every body; a
// middleware that moves the body onto another goroutine guards it there.
func (s *Spine) Guard(fn Func) Func {
	return func(ctx context.Context, r *http.Request) (body []byte, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				s.Obs.Counter(s.NS + ".panics_recovered").Add(1)
				body, err = nil, fmt.Errorf("internal panic: %v", rec)
			}
		}()
		return fn(ctx, r)
	}
}

// Mount registers the operator views. They bypass Handle — and with it any
// admission queue composed in front of a body — so a saturated or degraded
// server can always be seen: /metrics (the obs JSON dump, Prometheus text
// with ?format=prom), /debug/requests (the request ring, newest first,
// ?limit=) and /debug/slow (?threshold_ms=, default 10).
func (s *Spine) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/debug/slow", s.handleDebugSlow)
}

func (s *Spine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.Obs == nil {
		WriteError(w, http.StatusNotFound, "metrics recording disabled")
		return
	}
	hits, misses := s.Cache.Stats()
	s.Obs.Gauge(s.NS + ".cache.hit_total").Set(float64(hits))
	s.Obs.Gauge(s.NS + ".cache.miss_total").Set(float64(misses))
	write := s.Obs.WriteMetricsJSON
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "prom" {
		write = s.Obs.WritePromText
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	if err := write(w); err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Spine) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	limit, err := ParseInt(r.URL.Query().Get("limit"), 0, 1, 1<<20)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	WriteJSON(w, DebugRequestsReport{
		Requests: s.Requests.Snapshot(limit),
		Dropped:  s.Requests.Dropped(),
	})
}

func (s *Spine) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	threshold := 10.0
	if v := r.URL.Query().Get("threshold_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad threshold_ms %q", v))
			return
		}
		threshold = f
	}
	all := s.Requests.Snapshot(0)
	slow := make([]obs.RequestRecord, 0, len(all))
	for _, rec := range all {
		if rec.LatencyMs >= threshold {
			slow = append(slow, rec)
		}
	}
	WriteJSON(w, DebugSlowReport{ThresholdMs: threshold, Requests: slow})
}

// MaxBody bounds every request body the spine decodes.
const MaxBody = 8 << 20

// Decode reads the request's JSON body into v: at most MaxBody bytes (over
// answers 413), unknown fields refused (400).
func Decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return Errorf(http.StatusRequestEntityTooLarge, "request body over %d bytes", MaxBody)
		}
		return BadRequest("bad request body: %v", err)
	}
	return nil
}

// CacheKey is the one place reply-cache keys are built: the request URI
// minus any debug parameter, so a traced read sees the entry the plain
// read sees.
func CacheKey(r *http.Request) string {
	if !strings.Contains(r.URL.RawQuery, "debug") {
		return r.URL.RequestURI()
	}
	var kept []string
	for _, pair := range strings.Split(r.URL.RawQuery, "&") {
		if key, _, _ := strings.Cut(pair, "="); key != "debug" {
			kept = append(kept, pair)
		}
	}
	u := *r.URL
	u.RawQuery, u.ForceQuery = strings.Join(kept, "&"), false
	return u.RequestURI()
}

// JSON renders a response body: v's encoding plus a trailing newline.
func JSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON answers 200 with v, for handlers that bypass Handle.
func WriteJSON(w http.ResponseWriter, v any) {
	b, err := JSON(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// WriteError answers status with the {"error":…} envelope every role uses.
func WriteError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(b, '\n'))
}

// ParseInt reads an optional integer query parameter in [min, max].
func ParseInt(s string, def, min, max int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < min || v > max {
		return 0, BadRequest("bad integer %q (want %d..%d)", s, min, max)
	}
	return v, nil
}
