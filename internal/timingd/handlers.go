package timingd

import (
	"context"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"newgame/internal/obs"
	"newgame/internal/serve"
	"newgame/internal/sta"
	"newgame/internal/triage"
	"newgame/internal/units"
)

// routes wires the HTTP surface onto the serving spine. Query endpoints sit
// behind the bounded admission queue; /healthz, /debug/epochs and the
// spine's own /metrics and /debug flight-recorder views bypass it so
// operators can always see a saturated server.
func (s *Server) routes() {
	queued := func(pattern, route, method string, fn serve.Func) {
		s.mux.HandleFunc(pattern, s.spine.Handle(route, method, s.admit(fn)))
	}
	queued("/slack", "slack", http.MethodGet, s.handleSlack)
	queued("/endpoints", "endpoints", http.MethodGet, s.handleEndpoints)
	queued("/paths", "paths", http.MethodGet, s.handlePaths)
	queued("/triage", "triage", http.MethodGet, s.handleTriage)
	queued("/triage/extract", "triage.extract", http.MethodGet, s.handleTriageExtract)
	queued("/whatif", "whatif", http.MethodPost, s.handleWhatIf)
	queued("/eco", "eco", http.MethodPost, s.handleECO)
	queued("/admin/save", "save", http.MethodPost, s.handleSave)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/epochs", s.handleDebugEpochs)
	s.spine.Mount(s.mux)
	s.clusterRoutes()
}

// admit is the admission middleware in front of the queued routes:
// shutdown gate, bounded queue with 429 backpressure, and the per-request
// timeout whose context flows into incremental re-timing. The caller
// always waits for its admitted job — the job owns no reference to the
// ResponseWriter, so a timeout surfaces as the job's error (504), never as
// a write race. The job is the panic boundary for the read path: a crash
// in a render (or an injected cache fault) answers 500 and the worker
// survives to drain the queue.
func (s *Server) admit(fn serve.Func) serve.Func {
	fn = s.spine.Guard(fn)
	type answer struct {
		body []byte
		err  error
	}
	return func(ctx context.Context, r *http.Request) ([]byte, error) {
		s.closeMu.RLock()
		defer s.closeMu.RUnlock()
		if s.closed {
			return nil, serve.Errorf(http.StatusServiceUnavailable, "shutting down")
		}
		ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		done := make(chan answer, 1)
		if !s.pool.TrySubmit(func() {
			b, err := fn(ctx, r)
			done <- answer{b, err}
		}) {
			s.count("timingd.backpressure_429")
			return nil, serve.Errorf(http.StatusTooManyRequests, "request queue full")
		}
		a := <-done
		if a.err != nil && ctx.Err() != nil {
			return nil, &serve.Error{Status: http.StatusGatewayTimeout, Msg: a.err.Error()}
		}
		return a.body, a.err
	}
}

// readSnapshot serves the query from the cache when the rendered answer for
// the published epoch is already known — without taking the session's lock,
// so a cached read never waits on the writer — and otherwise renders and
// caches it under the session's RLock, at the epoch read again under that
// lock, which is exactly the epoch the data belongs to. A render that
// returns []byte has encoded its reply itself.
func (s *Server) readSnapshot(ctx context.Context, r *http.Request, render func(sess *session, epoch int64) (any, error)) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	uri := serve.CacheKey(r)
	info := serve.InfoFrom(ctx)
	// A faulty cache degrades to a render, never to a wrong or failed
	// response: a get fault is a miss, a put fault skips caching.
	epoch := s.epoch.Load()
	if err := s.fire(SiteCacheGet); err != nil {
		s.count("timingd.cache.faults")
	} else if b, ok := s.cache.Get(epoch, uri); ok {
		s.count("timingd.cache.hits")
		info.Epoch, info.Cache = epoch, "hit"
		return b, nil
	}
	sess := s.sess
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	if s.degraded.Load() {
		return nil, errDegraded
	}
	epoch = s.epoch.Load()
	info.Epoch = epoch
	s.count("timingd.cache.misses")
	info.Cache = "miss"
	sp := obs.TraceFrom(ctx).Start("render", nil)
	v, err := render(sess, epoch)
	sp.End()
	if err != nil {
		return nil, err
	}
	b, ok := v.([]byte)
	if !ok {
		b, err = serve.JSON(v)
	}
	if err != nil {
		return nil, err
	}
	if err := s.fire(SiteCachePut); err != nil {
		s.count("timingd.cache.faults")
	} else {
		s.cache.Put(epoch, uri, b)
	}
	return b, nil
}

func (s *Server) handleSlack(ctx context.Context, r *http.Request) ([]byte, error) {
	return s.readSnapshot(ctx, r, func(sess *session, epoch int64) (any, error) {
		return SlackReport{Epoch: epoch, Scenarios: sess.slacks()}, nil
	})
}

func (s *Server) handleEndpoints(ctx context.Context, r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	kind, err := parseKind(q.Get("kind"))
	if err != nil {
		return nil, err
	}
	limit, err := serve.ParseInt(q.Get("limit"), 10, 1, 100000)
	if err != nil {
		return nil, err
	}
	return s.readSnapshot(ctx, r, func(sess *session, epoch int64) (any, error) {
		i, err := sess.views.Find(q.Get("scenario"))
		if err != nil {
			return nil, serve.BadRequest("%v", err)
		}
		return EndpointsReport{
			Epoch: epoch, Scenario: sess.views.Scenarios[i].Name,
			Endpoints: endpoints(sess.views.Analyzers()[i], kind, limit),
		}, nil
	})
}

func (s *Server) handlePaths(ctx context.Context, r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	kind, err := parseKind(q.Get("kind"))
	if err != nil {
		return nil, err
	}
	k, err := serve.ParseInt(q.Get("k"), 5, 1, 1000)
	if err != nil {
		return nil, err
	}
	return s.readSnapshot(ctx, r, func(sess *session, epoch int64) (any, error) {
		i, err := sess.views.Find(q.Get("scenario"))
		if err != nil {
			return nil, serve.BadRequest("%v", err)
		}
		return sess.pathsReport(epoch, i, kind, k), nil
	})
}

// parseTriageOptions reads the shared /triage query knobs: ?k= bounds the
// per-endpoint worst-path enumeration, ?window= (ps, float) the k-worst
// arrival window. Defaults mirror triage.Options.
func parseTriageOptions(q url.Values) (triage.Options, error) {
	var opts triage.Options
	k, err := serve.ParseInt(q.Get("k"), 3, 1, 100)
	if err != nil {
		return opts, err
	}
	opts.K = k
	opts.Window = 10
	if v := q.Get("window"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) { // NaN fails every comparison
			return opts, serve.BadRequest("bad window %q (want positive ps)", v)
		}
		opts.Window = units.Ps(f)
	}
	return opts, nil
}

// handleTriage renders the clustered root-cause report over every served
// scenario. Extraction honors the full-recipe dominance plan: a scenario
// dominated by a sibling skips the k-worst path walks and inherits the
// dominator's segments at merge time.
func (s *Server) handleTriage(ctx context.Context, r *http.Request) ([]byte, error) {
	opts, err := parseTriageOptions(r.URL.Query())
	if err != nil {
		return nil, err
	}
	return s.readSnapshot(ctx, r, func(sess *session, epoch int64) (any, error) {
		return s.triageReport(sess, epoch, opts), nil
	})
}

// triageReport renders /triage: every served scenario's extract, merged on
// the session's triage graph.
func (s *Server) triageReport(sess *session, epoch int64, opts triage.Options) TriageReport {
	extracts := make([]triage.ScenarioExtract, len(s.scenarioSet))
	for i := range extracts {
		extracts[i] = s.triageExtract(sess, i, opts)
	}
	return TriageReport{Epoch: epoch, Report: sess.triage.Report(extracts)}
}

// triageExtract renders scenario i's extract on its lent walker and the
// session's triage graph.
func (s *Server) triageExtract(sess *session, i int, opts triage.Options) (ex triage.ScenarioExtract) {
	sess.walk(i, func(w *sta.PathWalker) {
		ex = sess.triage.Extract(w, s.triagePlan, s.scenarioSet[i].Index, opts)
	})
	return ex
}

// handleTriageExtract renders the raw relation-graph extracts of the
// scenarios asked (?scenario=a&scenario=b, none = the first) from one
// session read, so they share one epoch, encoded on pack/wire — the leg a
// cluster coordinator gathers from a shard and decodes only to merge.
func (s *Server) handleTriageExtract(ctx context.Context, r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	opts, err := parseTriageOptions(q)
	if err != nil {
		return nil, err
	}
	names := q["scenario"]
	if len(names) == 0 {
		names = []string{""}
	}
	idx := make([]int, len(names))
	for j, name := range names {
		idx[j] = slices.IndexFunc(s.scenarioSet, func(ref ScenarioRef) bool { return ref.Name == name || name == "" })
		if idx[j] < 0 {
			return nil, serve.BadRequest("unknown scenario %q", name)
		}
	}
	serve.InfoFrom(ctx).Binary = true
	return s.readSnapshot(ctx, r, func(sess *session, epoch int64) (any, error) {
		exs := make([]triage.ScenarioExtract, len(idx))
		for j, i := range idx {
			exs[j] = s.triageExtract(sess, i, opts)
		}
		return sess.triage.EncodeExtracts(epoch, exs), nil
	})
}

// OpsBody is the request body of /whatif and /eco.
type OpsBody struct {
	Ops []Op `json:"ops"`
}

// DecodeOps reads a /whatif or /eco request: the bounded, strict decode of
// the serving spine, then the one rule every role applies before acting —
// a request must carry at least one op. A coordinator decodes with it too,
// so a request refused here is refused identically through a cluster.
func DecodeOps(r *http.Request) ([]Op, error) {
	var body OpsBody
	if err := serve.Decode(r, &body); err != nil {
		return nil, err
	}
	if len(body.Ops) == 0 {
		return nil, serve.BadRequest("request has no ops")
	}
	return body.Ops, nil
}

func (s *Server) handleWhatIf(ctx context.Context, r *http.Request) ([]byte, error) {
	ops, err := DecodeOps(r)
	if err != nil {
		return nil, err
	}
	sp := obs.TraceFrom(ctx).Start("whatif", nil)
	rep, err := s.whatIf(ctx, ops)
	sp.End()
	if err != nil {
		return nil, err
	}
	serve.InfoFrom(ctx).Epoch = rep.Epoch
	return serve.JSON(rep)
}

func (s *Server) handleECO(ctx context.Context, r *http.Request) ([]byte, error) {
	ops, err := DecodeOps(r)
	if err != nil {
		return nil, err
	}
	sp := obs.TraceFrom(ctx).Start("commit", nil)
	rep, err := s.commit(ctx, ops)
	sp.End()
	if err != nil {
		return nil, err
	}
	serve.InfoFrom(ctx).Epoch = rep.Epoch
	return serve.JSON(rep)
}

// handleHealthz bypasses the queue: liveness must be observable even when
// the queue is saturated. Beyond the bare liveness bit it reports the
// served epoch, the degraded flag, uptime, and flight-recorder occupancy,
// so one probe tells an operator what state the daemon is actually in.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sess := s.sess
	sess.mu.RLock()
	h := Health{
		Status:    "ok",
		Epoch:     s.epoch.Load(),
		Scenarios: len(sess.views.Scenarios),
		Cells:     len(sess.views.D.Cells),
		Role:      s.role(),
	}
	sess.mu.RUnlock()
	if s.degraded.Load() {
		h.Status = "degraded"
		h.Degraded = true
	}
	h.UptimeSec = time.Since(s.start).Seconds()
	h.Snapshot = s.snapshotHealth()
	h.FlightRequests = s.flight.Requests.Len()
	h.FlightRequestsCap = s.flight.Requests.Cap()
	h.FlightCommits = s.flight.Commits.Len()
	h.FlightCommitsCap = s.flight.Commits.Cap()
	serve.WriteJSON(w, h)
}

// handleDebugEpochs serves the commit ring: the per-phase audit timeline
// of the last M commits, newest first.
func (s *Server) handleDebugEpochs(w http.ResponseWriter, r *http.Request) {
	limit, err := serve.ParseInt(r.URL.Query().Get("limit"), 0, 1, 1<<20)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	serve.WriteJSON(w, DebugEpochsReport{
		Commits: s.flight.Commits.Snapshot(limit),
		Dropped: s.flight.Commits.Dropped(),
	})
}

func parseKind(s string) (sta.CheckKind, error) {
	switch s {
	case "", "setup":
		return sta.Setup, nil
	case "hold":
		return sta.Hold, nil
	default:
		return sta.Setup, serve.BadRequest("unknown check kind %q", s)
	}
}
