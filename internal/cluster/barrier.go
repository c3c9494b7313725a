package cluster

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"newgame/internal/obs"
	"newgame/internal/serve"
	"newgame/internal/timingd"
	"newgame/internal/timingd/client"
)

// commitBarrier drives one epoch barrier: prepare on every shard,
// verify every shard is still reachable, then commit everywhere. The
// invariant it buys is that the cluster epoch is a real barrier — no
// shard serves epoch N+1 until every shard prepared it, and a shard
// death inside the window aborts (prepare phase) or degrades with a
// catch-up repair path (commit phase) instead of wedging or forking.
func (c *Coordinator) commitBarrier(ctx context.Context, ops []timingd.Op) (*timingd.WhatIfReport, error) {
	c.barrierMu.Lock()
	defer c.barrierMu.Unlock()
	start := time.Now()

	// Writes need the whole cluster: a dead or syncing member would miss
	// the epoch and fork. Refuse cleanly; reads keep serving meanwhile.
	c.mu.Lock()
	if len(c.members) == 0 {
		c.mu.Unlock()
		return nil, serve.Errorf(503, "no workers registered")
	}
	for _, m := range c.members {
		if m.state != memberAlive {
			c.mu.Unlock()
			c.count("cluster.barrier.refused")
			return nil, serve.Errorf(503, "cluster degraded: worker %s is %s; writes refused until it re-registers", m.id, m.state)
		}
	}
	if stale := c.staleLocked(); len(stale) > 0 {
		c.mu.Unlock()
		c.count("cluster.barrier.refused")
		return nil, serve.Errorf(503, "cluster degraded: scenario %q has no live shard", stale[0])
	}
	base := c.epoch
	members := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		members = append(members, m)
	}
	// In id order, so that which shard's refusal a client sees, and the
	// barrier record's member list, do not depend on map order.
	sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
	c.txnSeq++
	txn := fmt.Sprintf("eco-%d-%d", base+1, c.txnSeq)
	c.mu.Unlock()

	rec := BarrierRecord{Txn: txn, Epoch: base + 1}
	for _, m := range members {
		rec.Members = append(rec.Members, m.id)
	}
	fail := func(outcome string, status *serve.Error) (*timingd.WhatIfReport, error) {
		rec.Outcome = outcome
		rec.Err = status.Msg
		rec.TotalMs = obs.MsSince(start)
		c.flight.Put(rec)
		return nil, status
	}

	// Phase one: prepare everywhere. Each shard checks the ops and holds
	// its writer pending, guarded by its own expiry timer so a coordinator
	// death cannot wedge it.
	phase := time.Now()
	errs := scatter(ctx, members, c.cfg.WriteTimeout, func(ctx context.Context, _ int, m *member) error {
		return m.cl.Prepare(ctx, txn, base, ops)
	})
	rec.PrepareMs = obs.MsSince(phase)
	for i, err := range errs {
		if err == nil {
			continue
		}
		c.abortAll(ctx, members, txn)
		c.count("cluster.barrier.prepare_failures")
		if se, ok := err.(*client.StatusError); ok && se.Code < 500 {
			// The ops themselves were rejected (validation, epoch
			// mismatch): every shard would refuse identically, the
			// member is healthy. Propagate the shard's own answer.
			c.logf("cluster: barrier %s aborted, shard %s refused prepare: %v", txn, members[i].id, err)
			return fail("aborted", shardErr(err))
		}
		c.markDead(members[i], "prepare failed")
		c.logf("cluster: barrier %s aborted, worker %s unreachable in prepare: %v", txn, members[i].id, err)
		return fail("aborted", serve.Errorf(503, "prepare failed on worker %s: %v; cluster degraded, edit aborted", members[i].id, err))
	}

	if c.cfg.Hooks.BetweenPrepareAndCommit != nil {
		c.cfg.Hooks.BetweenPrepareAndCommit(txn)
	}

	// Verify: every shard must still be reachable before anyone commits.
	// This closes most of the commit-phase death window — a worker
	// killed between prepare and here aborts the barrier with no shard
	// having advanced (its own expiry timer rolls the dead one back).
	phase = time.Now()
	verifyTimeout := c.cfg.ShardTimeout
	if verifyTimeout > 2*time.Second {
		verifyTimeout = 2 * time.Second
	}
	errs = scatter(ctx, members, verifyTimeout, func(ctx context.Context, _ int, m *member) error {
		_, err := m.cl.Health(ctx)
		return err
	})
	rec.VerifyMs = obs.MsSince(phase)
	for i, err := range errs {
		if err != nil {
			c.abortAll(ctx, members, txn)
			c.markDead(members[i], "failed verify")
			c.count("cluster.barrier.verify_failures")
			c.logf("cluster: barrier %s aborted, worker %s failed verify: %v", txn, members[i].id, err)
			return fail("aborted", serve.Errorf(503, "worker %s unreachable between prepare and commit: %v; edit aborted, cluster degraded", members[i].id, err))
		}
	}

	// Phase two: commit everywhere; each shard applies and re-times the ops
	// once and reports. A failure here is the residual 2PC window —
	// survivors have already published epoch base+1, so the commit stands,
	// the failed worker is evicted, and catch-up replay repairs it on
	// re-registration (see DESIGN.md §15).
	phase = time.Now()
	reports := make([]*timingd.WhatIfReport, len(members))
	errs = scatter(ctx, members, c.cfg.WriteTimeout, func(ctx context.Context, i int, m *member) error {
		tr, err := m.cl.CommitTxn(ctx, txn)
		reports[i] = tr.Report
		return err
	})
	rec.CommitMs = obs.MsSince(phase)

	c.mu.Lock()
	c.epoch = base + 1
	c.oplog = append(c.oplog, append([]timingd.Op(nil), ops...))
	for i, m := range members {
		if errs[i] == nil {
			m.epoch = base + 1
		}
	}
	c.mu.Unlock()
	c.cache.Purge()

	committed := true
	for i, err := range errs {
		if err != nil {
			c.markDead(members[i], "failed commit")
			c.count("cluster.barrier.commit_failures")
			c.logf("cluster: barrier %s: worker %s failed commit (%v); evicted, catch-up will repair", txn, members[i].id, err)
			committed = false
		}
	}
	c.count("cluster.barrier.commits")
	rec.Outcome = "committed"
	if !committed {
		rec.Outcome = "committed-degraded"
	}
	rec.TotalMs = obs.MsSince(start)
	c.flight.Put(rec)
	c.logf("cluster: barrier %s committed epoch %d across %d workers (%.1fms)", txn, base+1, len(members), rec.TotalMs)

	// Each member committed its own scenarios; the reports of those that
	// confirmed, in canonical order, are the committed answer. A member
	// whose commit failed reports nothing, so its scenarios are left out.
	n := len(c.cfg.Scenarios)
	out := &timingd.WhatIfReport{Epoch: base + 1, Committed: true, Before: make([]timingd.ScenarioSlack, n), After: make([]timingd.ScenarioSlack, n)}
	for i, m := range members {
		r := reports[i]
		if r == nil {
			continue
		}
		asked := make([]int, len(m.scenarios))
		for j, ref := range m.scenarios {
			asked[j] = ref.Index
		}
		if err := cmp.Or(c.pick(out.Before, asked, r.Before), c.pick(out.After, asked, r.After)); err != nil {
			return nil, shardErr(err)
		}
	}
	unfilled := func(sc timingd.ScenarioSlack) bool { return sc.Scenario == "" }
	out.Before, out.After = slices.DeleteFunc(out.Before, unfilled), slices.DeleteFunc(out.After, unfilled)
	return out, nil
}

// abortAll best-effort aborts txn on every member in parallel, whether or
// not the request that started the barrier is still there to wait for it.
// Worker aborts are idempotent (unknown txn answers Done=false), so members
// that never prepared are safe to hit too.
func (c *Coordinator) abortAll(ctx context.Context, members []*member, txn string) {
	scatter(context.WithoutCancel(ctx), members, c.cfg.ShardTimeout, func(ctx context.Context, _ int, m *member) error {
		return m.cl.AbortTxn(ctx, txn)
	})
	c.count("cluster.barrier.aborts")
}

// markDead evicts a member immediately (barrier saw it fail; no reason
// to wait for the heartbeat sweep).
func (c *Coordinator) markDead(m *member, why string) {
	c.mu.Lock()
	if m.state != memberDead {
		m.state = memberDead
		c.rebuildLocked()
	}
	c.mu.Unlock()
	c.cache.Purge()
	c.logf("cluster: worker %s marked dead (%s)", m.id, why)
}
