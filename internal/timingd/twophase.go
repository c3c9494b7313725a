package timingd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"newgame/internal/obs"
	"newgame/internal/serve"
)

// This file splits the writer pipeline into an explicit two-phase protocol
// so a cluster coordinator can drive an epoch barrier across shards:
//
//	prepare  — evaluate the op batch on the shadow (resolve + apply +
//	           re-time), keep the edits live and the writer lock held,
//	           publish nothing;
//	commit   — bump the epoch, swap the shadow in, log and replay;
//	abort    — roll the edits back exactly and release the writer.
//
// The single-node commit() is prepare immediately followed by commit, and a
// what-if is evaluate immediately followed by rollback, so every writer path
// shares one implementation and the chaos-test semantics (fault sites,
// degraded transitions, flight-recorder audit) are identical.
//
// A prepared transaction holds writerMu across the prepare→commit/abort
// window — sync.Mutex explicitly permits unlocking from a different
// goroutine, which is exactly what the commit/abort HTTP handlers do. A
// coordinator that dies between phases cannot wedge the worker: every
// registered prepare carries an abort timer (Config.PrepareTimeout) that
// rolls the shadow back and releases the writer.

// preparedTxn is one edit batch in flight on the shadow. A what-if's lives
// inside one whatIf call; a prepared-but-uncommitted one holds the writer
// lock from prepare until exactly one of commitPrepared or abortPrepared
// consumes it.
type preparedTxn struct {
	id        string
	baseEpoch int64
	newEpoch  int64
	sh        *session
	// edits is non-nil from the moment apply may have touched the shadow;
	// mark is the netlist's name sequence just before.
	edits []*edit
	mark  int
	rep   *WhatIfReport
	ops   []Op
	cr    obs.CommitRecord
	timer *time.Timer
}

// errPrepareExpired is the abort cause when the coordinator never came back
// with a commit or abort inside PrepareTimeout.
var errPrepareExpired = fmt.Errorf("prepared transaction expired without commit or abort")

// errDegraded refuses writer work once the two sessions may have diverged.
var errDegraded = fmt.Errorf("server degraded by earlier failed commit; restart required")

// finishRecord completes the transaction's flight-recorder entry.
func (s *Server) finishRecord(p *preparedTxn, err error) {
	if err != nil {
		p.cr.Err = err.Error()
	}
	p.cr.TotalMs = obs.MsSince(p.cr.Start)
	s.flight.Commits.Put(p.cr)
}

// onShadow runs one step of the writer pipeline on the shadow: under its
// lock, and guarded — a panic means the shadow's state is unknown, so the
// server degrades rather than risk publishing or reusing a half-edited
// snapshot. The lock is deferred so the panic path cannot leak it. The
// caller holds writerMu.
func (s *Server) onShadow(sh *session, fn func() error) error {
	err := guard(func() error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return fn()
	})
	if isRecoveredPanic(err) {
		s.degraded.Store(true)
		s.count("timingd.panics_recovered")
	}
	return err
}

// evaluate is the half of the writer pipeline a what-if and a prepare
// share: resolve p.ops against the shadow, record the baseline, apply the
// edits and re-time, record the outcome. On success the edits stay live for
// the caller to publish or roll back; on failure they are already rolled
// back. Runs inside onShadow.
func (s *Server) evaluate(ctx context.Context, p *preparedTxn) error {
	sh := p.sh
	phase := time.Now()
	if err := s.fire(SiteCommitResolve); err != nil {
		return err
	}
	edits, err := sh.resolve(p.ops)
	p.cr.ResolveMs = obs.MsSince(phase)
	if err != nil {
		return err
	}
	p.rep.Before = sh.slacks()
	p.mark = sh.views.D.NameMark()
	if err := s.fire(SiteCommitApply); err != nil {
		return err
	}
	phase = time.Now()
	p.edits = edits
	err = sh.apply(ctx, edits)
	p.cr.ApplyMs = obs.MsSince(phase)
	if err != nil {
		s.rollback(p)
		return err
	}
	p.rep.After = sh.slacks()
	return nil
}

// rollback is the one way an evaluated edit batch leaves the shadow: exact
// netlist undo plus a non-cancellable re-time, after a what-if, a failed
// prepare, a coordinator abort, an expiry and Close alike. A failure
// degrades the server — the shadow can no longer be trusted to match the
// published snapshot. Runs inside onShadow.
func (s *Server) rollback(p *preparedTxn) {
	if err := p.sh.undo(p.edits, p.mark); err != nil {
		s.degraded.Store(true)
	}
}

// prepare runs the pre-publish half of a commit: it takes the writer lock,
// evaluates ops on the shadow, and returns with the lock STILL HELD and the
// edits live. baseEpoch, when non-nil, must match the current epoch (the
// cluster barrier's staleness check); a mismatch is a clean 409. On any
// error the shadow is rolled back and the lock released.
func (s *Server) prepare(ctx context.Context, ops []Op, baseEpoch *int64) (*preparedTxn, error) {
	s.writerMu.Lock()
	p := &preparedTxn{
		sh:  s.shadow,
		ops: ops,
		cr:  obs.CommitRecord{Start: time.Now(), OpsApplied: len(ops)},
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		p.cr.TraceID = tr.ID
	}
	fail := func(err error) (*preparedTxn, error) {
		s.finishRecord(p, err)
		s.writerMu.Unlock()
		return nil, err
	}
	if s.degraded.Load() {
		return fail(errDegraded)
	}
	p.baseEpoch = s.epoch.Load()
	if baseEpoch != nil && *baseEpoch != p.baseEpoch {
		return fail(serve.Errorf(http.StatusConflict,
			"epoch mismatch: shard at epoch %d, prepare wants base %d", p.baseEpoch, *baseEpoch))
	}
	p.newEpoch = p.baseEpoch + 1
	p.rep = &WhatIfReport{Epoch: p.newEpoch, Committed: true}
	err := s.onShadow(p.sh, func() error {
		err := s.evaluate(ctx, p)
		if err == nil {
			if err = s.fire(SiteCommitSwap); err != nil {
				s.rollback(p)
			}
		}
		return err
	})
	if err != nil {
		return fail(err)
	}
	return p, nil
}

// commitPrepared publishes a prepared transaction: epoch bump, snapshot
// swap, cache purge, epoch-log append, replay onto the retired snapshot,
// writer lock release. The commit is irrevocable once the swap happens; a
// replay failure degrades the server but the commit stands, exactly as in
// the single-node pipeline.
func (s *Server) commitPrepared(p *preparedTxn) *WhatIfReport {
	defer s.writerMu.Unlock()
	sh := p.sh
	phase := time.Now()
	newEpoch := s.epoch.Add(1)
	// The retiring snapshot may still have straggler readers holding RLock;
	// the shadow about to be published may too (from two swaps ago), so its
	// epoch tag is written under the lock.
	sh.mu.Lock()
	sh.epoch = newEpoch
	sh.mu.Unlock()
	old := s.cur.Swap(sh)
	p.cr.CachePurged = s.cache.Purge()
	p.cr.Epoch = newEpoch
	p.cr.SwapMs = obs.MsSince(phase)
	s.count("timingd.commits")
	if s.cfg.Obs != nil {
		s.cfg.Obs.Gauge("timingd.epoch").Set(float64(newEpoch))
	}
	// The commit is visible; make it durable. Runs under writerMu, so the
	// log's record order is the epoch order.
	s.logCommit(newEpoch, p.ops)

	// Replay onto the retired snapshot. Stragglers still reading it hold
	// RLock; the edit waits for them. Not cancellable: the commit is
	// already visible. Guarded for the same reason as prepare — a panic
	// mid-replay leaves the retired snapshot unusable as the next shadow.
	phase = time.Now()
	rerr := guard(func() error {
		if err := s.fire(SiteCommitReplay); err != nil {
			return err
		}
		old.mu.Lock()
		defer old.mu.Unlock()
		oldEdits, err := old.resolve(p.ops)
		if err == nil {
			err = old.apply(context.Background(), oldEdits)
		}
		old.epoch = newEpoch
		return err
	})
	p.cr.ReplayMs = obs.MsSince(phase)
	if rerr != nil {
		if isRecoveredPanic(rerr) {
			s.count("timingd.panics_recovered")
		}
		s.degraded.Store(true)
		s.finishRecord(p, rerr)
		return p.rep // the commit itself succeeded
	}
	s.shadow = old
	s.finishRecord(p, nil)
	return p.rep
}

// abortPrepared rolls a prepared transaction back and releases the writer.
func (s *Server) abortPrepared(p *preparedTxn, cause error) {
	defer s.writerMu.Unlock()
	s.onShadow(p.sh, func() error {
		s.rollback(p)
		return nil
	})
	s.count("timingd.barrier.aborts")
	s.finishRecord(p, cause)
}

// registerPending parks a prepared transaction for a later commit/abort
// call and arms its expiry timer. Caller must hold the transaction (i.e.
// prepare succeeded and nothing consumed it yet).
func (s *Server) registerPending(p *preparedTxn) {
	s.pendingMu.Lock()
	s.pending = p
	s.pendingMu.Unlock()
	p.timer = time.AfterFunc(s.cfg.PrepareTimeout, func() {
		if q := s.takePending(p.id); q != nil {
			s.count("timingd.barrier.expired")
			s.abortPrepared(q, errPrepareExpired)
		}
	})
}

// takePending atomically claims the pending transaction with the given id
// (any pending transaction when id is empty). Exactly one of the commit
// handler, the abort handler, the expiry timer, or Close wins.
func (s *Server) takePending(id string) *preparedTxn {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	p := s.pending
	if p == nil || (id != "" && p.id != id) {
		return nil
	}
	s.pending = nil
	return p
}

// pendingTxnID reports the id of the in-flight prepared transaction, if
// any ("" otherwise).
func (s *Server) pendingTxnID() string {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	if s.pending == nil {
		return ""
	}
	return s.pending.id
}

// --- HTTP surface -----------------------------------------------------

// clusterRoutes registers the worker-side barrier endpoints. They mount on
// the spine without the admission middleware on purpose: an epoch barrier
// must not be starved or 429'd by read traffic, and the writer lock already
// serializes them.
func (s *Server) clusterRoutes() {
	s.mux.HandleFunc("/cluster/prepare", s.spine.Handle("cluster.prepare", http.MethodPost, s.handleClusterPrepare))
	s.mux.HandleFunc("/cluster/commit", s.spine.Handle("cluster.commit", http.MethodPost, s.handleClusterCommit))
	s.mux.HandleFunc("/cluster/abort", s.spine.Handle("cluster.abort", http.MethodPost, s.handleClusterAbort))
	s.mux.HandleFunc("/cluster/info", s.handleClusterInfo)
}

// handleClusterPrepare is phase one of the epoch barrier: validate, apply
// and re-time the batch on the shadow, answer with the epoch this shard
// will move to, and hold everything pending the coordinator's decision.
func (s *Server) handleClusterPrepare(ctx context.Context, r *http.Request) ([]byte, error) {
	var req PrepareRequest
	if err := serve.Decode(r, &req); err != nil {
		return nil, err
	}
	if req.Txn == "" || len(req.Ops) == 0 {
		return nil, serve.BadRequest("prepare needs a txn id and ops")
	}
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	if closed {
		return nil, serve.Errorf(http.StatusServiceUnavailable, "shutting down")
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	p, err := s.prepare(ctx, req.Ops, &req.BaseEpoch)
	if err != nil {
		return nil, err
	}
	p.id = req.Txn
	s.registerPending(p)
	serve.InfoFrom(ctx).Epoch = p.newEpoch
	return serve.JSON(PrepareResponse{Txn: p.id, Epoch: p.newEpoch, Report: p.rep})
}

// handleClusterCommit is phase two: publish the prepared transaction. An
// unknown txn is a 409 — the prepare expired or was aborted, so the
// coordinator must treat the shard as NOT committed.
func (s *Server) handleClusterCommit(ctx context.Context, r *http.Request) ([]byte, error) {
	txn, err := decodeTxn(r)
	if err != nil {
		return nil, err
	}
	p := s.takePending(txn)
	if p == nil {
		return nil, serve.Errorf(http.StatusConflict, "no prepared transaction %q (expired or aborted)", txn)
	}
	p.timer.Stop()
	rep := s.commitPrepared(p)
	serve.InfoFrom(ctx).Epoch = rep.Epoch
	return serve.JSON(TxnResponse{Txn: txn, Epoch: rep.Epoch, Done: true})
}

// handleClusterAbort rolls a prepared transaction back. Aborting an
// unknown txn is idempotent success — the expiry timer may have won.
func (s *Server) handleClusterAbort(ctx context.Context, r *http.Request) ([]byte, error) {
	txn, err := decodeTxn(r)
	if err != nil {
		return nil, err
	}
	p := s.takePending(txn)
	if p != nil {
		p.timer.Stop()
		s.abortPrepared(p, fmt.Errorf("aborted by coordinator"))
	}
	epoch := s.epoch.Load()
	serve.InfoFrom(ctx).Epoch = epoch
	return serve.JSON(TxnResponse{Txn: txn, Epoch: epoch, Done: p != nil})
}

// decodeTxn reads a commit/abort body. Anything short of a txn id — bad
// JSON included — is the same 400; only an oversize body keeps its 413.
func decodeTxn(r *http.Request) (string, error) {
	var req TxnRequest
	err := serve.Decode(r, &req)
	var se *serve.Error
	if errors.As(err, &se) && se.Status == http.StatusRequestEntityTooLarge {
		return "", err
	}
	if err != nil || req.Txn == "" {
		return "", serve.BadRequest("request needs a txn id")
	}
	return req.Txn, nil
}

// handleClusterInfo reports this shard's role, epoch and scenario set —
// what a coordinator (or operator) needs to place it in the ring.
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, ClusterInfo{
		Role:       s.role(),
		Epoch:      s.epoch.Load(),
		Degraded:   s.degraded.Load(),
		Scenarios:  s.ScenarioSet(),
		PendingTxn: s.pendingTxnID(),
	})
}

func (s *Server) role() string {
	if s.cfg.Role == "" {
		return "single"
	}
	return s.cfg.Role
}

// ScenarioSet returns the scenarios this server serves, each tagged with
// its index in the full recipe order — the canonical ordering a
// coordinator merges shard answers in.
func (s *Server) ScenarioSet() []ScenarioRef {
	out := make([]ScenarioRef, len(s.scenarioSet))
	copy(out, s.scenarioSet)
	return out
}

// scenarioSubset resolves a scenario-name filter against the full recipe
// order: the kept scenarios stay in recipe order regardless of filter
// order, and each carries its full-recipe index. An empty filter keeps
// everything; an unknown name is a configuration error.
func scenarioSubset(full []ScenarioRef, filter []string) ([]ScenarioRef, error) {
	if len(filter) == 0 {
		return full, nil
	}
	known := make(map[string]bool, len(full))
	for _, ref := range full {
		known[ref.Name] = true
	}
	for _, name := range filter {
		if !known[name] {
			return nil, fmt.Errorf("timingd: scenario filter names unknown scenario %q", name)
		}
	}
	var kept []ScenarioRef
	for _, ref := range full {
		if slices.Contains(filter, ref.Name) {
			kept = append(kept, ref)
		}
	}
	return kept, nil
}
