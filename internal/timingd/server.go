package timingd

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/pack"
	"newgame/internal/parasitics"
	"newgame/internal/serve"
	"newgame/internal/sta"
	"newgame/internal/triage"
	"newgame/internal/units"
	"newgame/internal/workpool"
)

// Config assembles one timingd instance.
type Config struct {
	// Design is the netlist to serve. The server never mutates it: the
	// session works on its own clone. A restore ignores it.
	Design *netlist.Design
	// Recipe supplies the MCMM scenario set (libraries, corners, derates).
	Recipe core.Recipe
	// Stack is the BEOL stack parasitics are synthesized from.
	Stack *parasitics.Stack
	// ClockPort names the clock root port ("clk" when empty).
	ClockPort string
	// BasePeriod is the functional-mode clock period, ps (0 = 700). A
	// negative or non-finite period is a configuration error.
	BasePeriod units.Ps
	// InputArrival is the external arrival on data inputs (0 = default).
	// A negative or non-finite arrival is a configuration error.
	InputArrival units.Ps
	// Seed keys parasitics synthesis.
	Seed int64
	// Workers is the session's analysis budget (0 = all CPUs), split
	// between the scenarios a build or re-run fans out and each one's
	// level-parallel propagation (core.Views.Workers).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429.
	// Default 64.
	QueueDepth int
	// QueryWorkers is the number of goroutines draining the queue;
	// 0 = all CPUs.
	QueryWorkers int
	// CacheSize bounds the per-epoch query cache entries. Default 256.
	CacheSize int
	// RequestTimeout bounds each query's work, propagated as a context
	// into incremental re-timing. Default 30s.
	RequestTimeout time.Duration
	// Obs, when non-nil, records request counters, latency histograms and
	// sta-level spans, served at /metrics.
	Obs *obs.Recorder
	// Hooks, when non-nil, injects faults at writer and cache seams.
	// Test-only; leave nil in production.
	Hooks *Hooks

	// ScenarioFilter, when non-empty, restricts the server to the named
	// scenarios of the recipe — a cluster worker serving its shard of the
	// MCMM scenario space. The kept scenarios stay in recipe order, and
	// ScenarioSet() reports their indices in the FULL recipe order so a
	// coordinator can merge shard answers canonically. Applied after
	// Restore, so workers booting from one shared pack can each keep a
	// different subset.
	ScenarioFilter []string
	// Role tags this instance for /healthz and /cluster/info ("" reads as
	// "single"; cmd/timingd sets "worker" or leaves it).
	Role string
	// PrepareTimeout bounds how long a prepared-but-uncommitted cluster
	// transaction may hold the writer before it is auto-aborted — a dead
	// coordinator must not wedge the shard. Default 15s.
	PrepareTimeout time.Duration

	// SnapshotDir, when non-empty, enables state persistence: POST
	// /admin/save writes binary packs there, and every committed ECO is
	// appended (CRC-framed, fsynced) to the epoch log epochs.log in the
	// same directory. At boot an existing log is replayed onto the built
	// state — crash recovery.
	SnapshotDir string
	// Restore, when non-nil, boots from a decoded snapshot pack: Design,
	// Recipe, Stack, clocking and seed are taken from it, and the decoded
	// netlist is levelized as a fresh boot's is. The server takes the whole
	// snapshot over: it edits the snapshot's design in place,
	// uncloned, and times it with the snapshot's parasitics table, saved
	// trees and all, so a snapshot restores at most one server.
	Restore *pack.Snapshot
	// RestorePath is the pack the snapshot came from, for /healthz
	// provenance.
	RestorePath string
	// RestoreToEpoch, when > 0, stops epoch-log replay at that epoch
	// (point-in-time rewind) and truncates the log there; 0 replays the
	// whole log.
	RestoreToEpoch int64
}

func (c *Config) withDefaults() *Config {
	out := *c
	if out.ClockPort == "" {
		out.ClockPort = "clk"
	}
	if out.BasePeriod == 0 {
		out.BasePeriod = 700
	}
	if out.QueueDepth == 0 {
		out.QueueDepth = 64
	}
	if out.CacheSize == 0 {
		out.CacheSize = 256
	}
	if out.RequestTimeout == 0 {
		out.RequestTimeout = 30 * time.Second
	}
	if out.PrepareTimeout == 0 {
		out.PrepareTimeout = 15 * time.Second
	}
	return &out
}

// flightRequests and flightCommits size the always-on flight-recorder rings:
// the last N requests at /debug/requests, the last M commits at
// /debug/epochs.
const (
	flightRequests = 256
	flightCommits  = 64
)

// Server is the resident daemon: one timed session, a bounded admission
// queue, and the query cache.
type Server struct {
	cfg *Config

	// sess is the one session, edited in place by the single writer.
	// writerMu serializes writer operations — what-ifs, commits, a prepared
	// transaction's whole window and saves — so between them the session is
	// exactly the published epoch.
	sess     *session
	writerMu sync.Mutex

	// epoch is the published epoch. It moves only under the session's write
	// lock, so a reader holding RLock renders the epoch it reads; a cache
	// lookup reads it without any lock.
	epoch atomic.Int64
	pool  *workpool.Pool
	cache *serve.Cache
	spine *serve.Spine

	// closeMu orders graceful shutdown against in-flight requests: every
	// handler holds it shared for its whole lifetime, Close takes it
	// exclusively, so Close blocks until the in-flight queries drain and
	// requests arriving during shutdown observe closed and refuse.
	closeMu sync.RWMutex
	closed  bool

	// degraded is set when a writer panic could not be recovered from (or a
	// rollback failed), so the session may no longer be the published
	// epoch: writes and cold reads are refused from then on.
	degraded atomic.Bool

	// pending is the at-most-one prepared-but-uncommitted cluster
	// transaction (it holds writerMu); pendingMu arbitrates between the
	// commit handler, the abort handler, the expiry timer and Close.
	pendingMu sync.Mutex
	pending   *preparedTxn

	// scenarioSet is the served scenario subset, each entry carrying its
	// index in the full recipe order (identity for unfiltered servers).
	scenarioSet []ScenarioRef

	// triagePlan is the scenario-dominance pruning schedule, computed once
	// over the FULL recipe (captured before ScenarioFilter narrows it) so
	// every shard of a cluster derives the identical plan and a dominated
	// scenario on one shard resolves against its dominator on another.
	triagePlan triage.Plan

	// flight is the always-on black box: the last N requests and last M
	// commits, written lock-free from the hot path and served at
	// /debug/requests, /debug/epochs and /debug/slow.
	flight *obs.FlightRecorder
	start  time.Time

	// snap is the boot-time snapshot provenance; wal the open epoch log.
	// walAppended/walErr track the log's health for /healthz.
	snap        snapshotInfo
	wal         *pack.Log
	walAppended atomic.Int64
	walErr      atomic.Pointer[string]

	mux *http.ServeMux
}

// NewServer loads the design once and times its one session. With
// Config.Restore set it boots from the decoded snapshot instead — no text
// parsing, no library generation — and with a SnapshotDir it then replays
// the epoch log's tail onto the restored state and opens the log for
// appends.
func NewServer(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	if c.Restore != nil {
		c.applyRestore()
	}
	if c.Design == nil {
		return nil, fmt.Errorf("timingd: Config.Design is nil")
	}
	if len(c.Recipe.Scenarios) == 0 {
		return nil, fmt.Errorf("timingd: recipe has no scenarios")
	}
	if c.Stack == nil {
		return nil, fmt.Errorf("timingd: Config.Stack is nil")
	}
	// A zero period survives only a restored pack (withDefaults fills the
	// configured one in); none may reach the triage plan or the analyzers.
	if p := float64(c.BasePeriod); !(p > 0) || math.IsInf(p, 1) {
		return nil, fmt.Errorf("timingd: clock period %v ps is not a positive finite number", c.BasePeriod)
	}
	if a := float64(c.InputArrival); !(a >= 0) || math.IsInf(a, 1) {
		return nil, fmt.Errorf("timingd: input arrival %v ps is not a non-negative finite number", c.InputArrival)
	}
	// Resolve the scenario shard AFTER a restore: workers booting from one
	// shared pack each keep their own subset of the pack's full recipe.
	full := make([]ScenarioRef, len(c.Recipe.Scenarios))
	for i, sc := range c.Recipe.Scenarios {
		full[i] = ScenarioRef{Index: i, Name: sc.Name}
	}
	kept, err := scenarioSubset(full, c.ScenarioFilter)
	if err != nil {
		return nil, err
	}
	// The triage plan must see the full recipe: the filter below replaces
	// it with the shard's subset.
	fullScenarios := c.Recipe.Scenarios
	if len(kept) != len(full) {
		scenarios := make([]core.Scenario, len(kept))
		for i, ref := range kept {
			scenarios[i] = c.Recipe.Scenarios[ref.Index]
		}
		c.Recipe.Scenarios = scenarios
	}
	s := &Server{
		cfg:         c,
		pool:        workpool.NewPool(c.QueryWorkers, c.QueueDepth),
		cache:       serve.NewCache(c.CacheSize),
		flight:      obs.NewFlightRecorder(flightRequests, flightCommits),
		start:       time.Now(),
		scenarioSet: kept,
		triagePlan:  triage.PlanFor(fullScenarios, c.BasePeriod),
	}
	// The table's keyed rule gives a net the same tree whatever history of
	// edits routes it. A restored boot takes the pack's table, saved trees
	// and all.
	trees := sta.NewKeyedNetBinder(c.Stack, c.Seed)
	if c.Restore != nil && c.Restore.Parasitics != nil {
		trees = c.Restore.Parasitics
	}
	if s.sess, err = newSession(c, trees); err != nil {
		return nil, err
	}
	if c.Restore != nil {
		s.epoch.Store(c.Restore.Epoch)
		s.snap.restoredFrom = c.RestorePath
		s.snap.snapshotEpoch = c.Restore.Epoch
	}
	if c.SnapshotDir != "" {
		s.snap.dir = c.SnapshotDir
		if err := s.recoverLog(); err != nil {
			return nil, err
		}
	}
	s.spine = &serve.Spine{NS: "timingd", Obs: c.Obs, Requests: s.flight.Requests, Cache: s.cache}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// ServeHTTP makes the server mountable (httptest, custom http.Server).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Epoch returns the current commit epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// Close stops admitting queries, drains the in-flight ones, and shuts the
// worker pool down. Safe to call more than once.
func (s *Server) Close() {
	s.closeMu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.closeMu.Unlock()
	// A prepared-but-undecided cluster transaction holds writerMu; abort
	// it now so shutdown (and the wal close below) cannot deadlock behind
	// a coordinator that will never answer.
	if p := s.takePending(""); p != nil {
		p.timer.Stop()
		s.abortPrepared(p, fmt.Errorf("server closing"))
	}
	s.pool.Close()
	if !alreadyClosed && s.wal != nil {
		// Appends hold writerMu; taking it orders the close after any
		// in-flight commit's log write.
		s.writerMu.Lock()
		s.wal.Close()
		s.writerMu.Unlock()
	}
}

// count bumps a named counter when recording.
func (s *Server) count(name string) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Counter(name).Add(1)
	}
}

// commit applies a validated edit batch to the session and publishes it as
// the next epoch: resolve, apply, re-time, epoch bump and cache purge under
// one hold of the session's write lock, then the epoch-log append (see
// publish). Every commit — successful or not — leaves a CommitRecord with
// per-phase durations in the flight recorder, so /debug/epochs reconstructs
// the writer pipeline's audit timeline post hoc.
func (s *Server) commit(ctx context.Context, ops []Op) (*WhatIfReport, error) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	p, err := s.begin(ctx, ops, nil)
	if err != nil {
		s.finishRecord(p, err)
		return nil, err
	}
	return s.publish(ctx, p)
}

// whatIf evaluates an edit batch on the session and rolls it back under one
// hold of its write lock, never publishing anything. The response is tagged
// with the epoch whose baseline it was evaluated against.
func (s *Server) whatIf(ctx context.Context, ops []Op) (*WhatIfReport, error) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	if s.degraded.Load() {
		return nil, errDegraded
	}
	p := &preparedTxn{ops: ops, rep: &WhatIfReport{Epoch: s.epoch.Load()}}
	if err := s.onSession(p, func() error {
		if err := s.evaluate(ctx, p); err != nil {
			return err
		}
		s.rollback(p)
		return nil
	}); err != nil {
		return nil, err
	}
	s.count("timingd.whatifs")
	return p.rep, nil
}
