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

// This file holds the writer pipeline and the two-phase protocol a cluster
// coordinator drives an epoch barrier across shards with:
//
//	prepare  — take the writer lock, check the base epoch, resolve the op
//	           batch against the session, and keep the writer lock;
//	commit   — a node's /eco on the held writer: apply the batch, re-time,
//	           publish the next epoch, log it, and answer the report;
//	abort    — release the writer lock.
//
// A what-if is evaluate immediately followed by rollback and a commit is
// evaluate immediately followed by publish, so every writer path shares one
// implementation and the chaos-test semantics (fault sites, panic recovery,
// flight-recorder audit) are identical. A prepare applies nothing, so a
// barrier re-times each shard once, in its commit.
//
// A prepared transaction holds writerMu across the prepare→commit/abort
// window — sync.Mutex explicitly permits unlocking from a different
// goroutine, which is exactly what the commit/abort HTTP handlers do.
// Because nothing else can write in between, the batch prepare resolved
// still resolves at commit, and resolve refuses everything apply could fail
// on, so a commit that fails met a fault, not the batch. The session is
// never edited between phases: readers keep answering the published epoch,
// and a coordinator that dies between phases costs only the writer lock,
// which every registered prepare's timer (Config.PrepareTimeout) releases.

// preparedTxn is one edit batch in the writer pipeline. A what-if's lives
// inside one whatIf call; a prepared-but-uncommitted one holds the writer
// lock from prepare until exactly one of commitPrepared or abortPrepared
// consumes it.
type preparedTxn struct {
	id       string
	newEpoch int64
	// edits is non-nil from the moment apply may have touched the session;
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

// errDegraded refuses writes and cold reads once recovering from a writer
// panic failed, so the session may no longer be the published epoch.
var errDegraded error = serve.Errorf(http.StatusServiceUnavailable,
	"server degraded: recovering from a writer panic failed; restart required")

// finishRecord completes the transaction's flight-recorder entry.
func (s *Server) finishRecord(p *preparedTxn, err error) {
	if err != nil {
		p.cr.Err = err.Error()
	}
	p.cr.TotalMs = obs.MsSince(p.cr.Start)
	s.flight.Commits.Put(p.cr)
}

// onSession runs one writer step on the session under its write lock, and
// guarded. A panic may leave p's edits live, so before the lock is released
// they are undone exactly and every analyzer is re-run in full: readers never
// see them, and the session is back at the published epoch. Only a failure
// of that recovery degrades the server. The caller holds writerMu.
func (s *Server) onSession(p *preparedTxn, fn func() error) error {
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	err := guard(fn)
	if isRecoveredPanic(err) {
		s.count("timingd.panics_recovered")
		if rerr := guard(func() error { return s.recoverSession(p) }); rerr != nil {
			s.degraded.Store(true)
		}
	}
	return err
}

// recoverSession undoes whatever of p's edits may be live and re-runs every
// analyzer from scratch. Runs inside onSession.
func (s *Server) recoverSession(p *preparedTxn) error {
	if p.edits == nil {
		return nil // the panic came before anything was edited
	}
	if err := s.fire(SiteCommitRecover); err != nil {
		return err
	}
	s.sess.revert(p.edits, p.mark)
	s.count("timingd.retimes")
	return s.sess.views.Rerun(context.Background())
}

// resolve is the first step of every writer path and all of a prepare:
// bind p.ops to the session's netlist. The caller holds writerMu; the
// session's lock is not needed, since resolve only reads the session and
// nothing but the writer edits it.
func (s *Server) resolve(p *preparedTxn) (edits []*edit, err error) {
	phase := time.Now()
	if err = s.fire(SiteCommitResolve); err == nil {
		edits, err = s.sess.resolve(p.ops)
	}
	p.cr.ResolveMs = obs.MsSince(phase)
	return edits, err
}

// evaluate is the half of the writer pipeline a what-if and a commit share:
// resolve p.ops, record the baseline, apply the edits and re-time, record
// the outcome. On success the edits stay live for the caller to publish or
// roll back; on failure they are already rolled back. Runs inside
// onSession.
func (s *Server) evaluate(ctx context.Context, p *preparedTxn) error {
	sess := s.sess
	edits, err := s.resolve(p)
	if err != nil {
		return err
	}
	p.rep.Before = sess.slacks()
	p.mark = sess.views.D.NameMark()
	if err := s.fire(SiteCommitApply); err != nil {
		return err
	}
	phase := time.Now()
	p.edits = edits
	err = sess.apply(ctx, edits)
	p.cr.ApplyMs = obs.MsSince(phase)
	if err != nil {
		s.rollback(p)
		return err
	}
	p.rep.After = sess.slacks()
	return nil
}

// rollback is the one way an evaluated edit batch leaves the session
// unpublished: exact netlist undo plus a non-cancellable re-time, after a
// what-if and a failed commit alike. A failure degrades the
// server — the session can no longer be trusted to be the published epoch.
// Runs inside onSession.
func (s *Server) rollback(p *preparedTxn) {
	s.sess.revert(p.edits, p.mark)
	if err := s.sess.settle(context.Background(), p.edits); err != nil {
		s.degraded.Store(true)
	}
	p.edits = nil
}

// begin opens a commit's flight record and checks the server may take it:
// not degraded and, when baseEpoch is non-nil (the cluster barrier's
// staleness check), at that epoch — a mismatch is a clean 409. The caller
// holds writerMu and owes finishRecord on error.
func (s *Server) begin(ctx context.Context, ops []Op, baseEpoch *int64) (*preparedTxn, error) {
	p := &preparedTxn{ops: ops, cr: obs.CommitRecord{Start: time.Now(), OpsApplied: len(ops)}}
	if tr := obs.TraceFrom(ctx); tr != nil {
		p.cr.TraceID = tr.ID
	}
	if s.degraded.Load() {
		return p, errDegraded
	}
	base := s.epoch.Load()
	if baseEpoch != nil && *baseEpoch != base {
		return p, serve.Errorf(http.StatusConflict,
			"epoch mismatch: shard at epoch %d, prepare wants base %d", base, *baseEpoch)
	}
	p.newEpoch = base + 1
	p.rep = &WhatIfReport{Epoch: p.newEpoch, Committed: true}
	return p, nil
}

// publish commits p: evaluate, then — under the same hold of the session's
// write lock, so it re-times once — purge the query cache and publish the
// next epoch. The epoch-log append follows under writerMu alone, so its
// record order is the epoch order but readers do not wait on the fsync. A
// failure leaves the session at the published epoch. The caller holds
// writerMu; the flight record is finished here.
func (s *Server) publish(ctx context.Context, p *preparedTxn) (*WhatIfReport, error) {
	err := s.onSession(p, func() error {
		if err := s.evaluate(ctx, p); err != nil {
			return err
		}
		if err := s.fire(SiteCommitSwap); err != nil {
			s.rollback(p)
			return err
		}
		phase := time.Now()
		p.cr.CachePurged = s.cache.Purge()
		s.epoch.Store(p.newEpoch)
		p.cr.SwapMs = obs.MsSince(phase)
		return nil
	})
	if err != nil {
		s.finishRecord(p, err)
		return nil, err
	}
	p.cr.Epoch = p.newEpoch
	s.count("timingd.commits")
	if s.cfg.Obs != nil {
		s.cfg.Obs.Gauge("timingd.epoch").Set(float64(p.newEpoch))
	}
	s.logCommit(p.newEpoch, p.ops)
	s.finishRecord(p, nil)
	return p.rep, nil
}

// prepare is phase one of the barrier: it takes the writer lock, checks the
// base epoch and resolves ops without the session's lock, and returns with
// the writer lock STILL HELD. The resolve runs guarded, since a panic would
// leak the writer lock. On any error the lock is released.
func (s *Server) prepare(ctx context.Context, ops []Op, baseEpoch int64) (*preparedTxn, error) {
	s.writerMu.Lock()
	p, err := s.begin(ctx, ops, &baseEpoch)
	if err == nil {
		err = guard(func() error { _, err := s.resolve(p); return err })
	}
	if err != nil {
		s.finishRecord(p, err)
		s.writerMu.Unlock()
		return nil, err
	}
	return p, nil
}

// commitPrepared publishes a prepared transaction — the one re-time of the
// barrier — and releases the writer lock. It is not cancellable: the
// coordinator has decided.
func (s *Server) commitPrepared(p *preparedTxn) (*WhatIfReport, error) {
	defer s.writerMu.Unlock()
	return s.publish(context.Background(), p)
}

// abortPrepared releases the writer lock a prepared transaction holds; a
// prepare edits nothing, so there is nothing to roll back.
func (s *Server) abortPrepared(p *preparedTxn, cause error) {
	defer s.writerMu.Unlock()
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

// handleClusterPrepare is phase one of the epoch barrier: validate the
// batch, answer with the epoch this shard will move to, and hold the writer
// pending the coordinator's decision.
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
	p, err := s.prepare(ctx, req.Ops, req.BaseEpoch)
	if err != nil {
		return nil, err
	}
	p.id = req.Txn
	s.registerPending(p)
	serve.InfoFrom(ctx).Epoch = p.newEpoch
	return serve.JSON(PrepareResponse{Txn: p.id, Epoch: p.newEpoch})
}

// handleClusterCommit is phase two: publish the prepared transaction and
// answer its report. An unknown txn is a 409 — the prepare expired or was
// aborted, so the coordinator must treat the shard as NOT committed.
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
	rep, err := s.commitPrepared(p)
	if err != nil {
		return nil, err
	}
	serve.InfoFrom(ctx).Epoch = rep.Epoch
	return serve.JSON(TxnResponse{Txn: txn, Epoch: rep.Epoch, Done: true, Report: rep})
}

// handleClusterAbort releases a prepared transaction. Aborting an
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
