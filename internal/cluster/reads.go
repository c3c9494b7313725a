package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"newgame/internal/serve"
	"newgame/internal/timingd"
	"newgame/internal/timingd/client"
)

var errEpochSkew = serve.Errorf(503, "epoch skew across shards; retry")

// shardErr maps a worker-call failure onto the coordinator's answer: a
// 4xx from the worker propagates verbatim (the client's request really
// was bad), anything else is the shard's problem, not the caller's.
func shardErr(err error) *serve.Error {
	if se, ok := err.(*client.StatusError); ok && se.Code < 500 {
		return &serve.Error{Status: se.Code, Msg: se.Msg}
	}
	if errors.Is(err, context.DeadlineExceeded) || isTimeout(err) {
		return serve.Errorf(504, "shard timed out")
	}
	return serve.Errorf(502, "shard error: %v", err)
}

func isTimeout(err error) bool {
	var t interface{ Timeout() bool }
	return errors.As(err, &t) && t.Timeout()
}

// scatter runs fn once per member, concurrently, each leg under its own
// timeout below ctx, and returns the legs' errors in member order — the one
// fan-out every phase of the barrier and every merged read is built on.
func scatter(ctx context.Context, members []*member, timeout time.Duration, fn func(ctx context.Context, i int, m *member) error) []error {
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			errs[i] = fn(cctx, i, m)
		}(i, m)
	}
	wg.Wait()
	return errs
}

// scenarioPlan is one scenario's fetch plan: its canonical slot and the
// live members able to serve it, in ring-preference order.
type scenarioPlan struct {
	idx        int
	name       string
	candidates []*member
}

// plan snapshots the per-scenario candidate lists and the cluster epoch
// under one lock acquisition.
func (c *Coordinator) plan() (epoch int64, plans []scenarioPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	plans = make([]scenarioPlan, len(c.cfg.Scenarios))
	for idx, name := range c.cfg.Scenarios {
		plans[idx] = scenarioPlan{idx: idx, name: name, candidates: c.candidatesFor(name, idx)}
	}
	return c.epoch, plans
}

// gatherSlack scatter-gathers GET /slack: round one asks each
// scenario's primary shard, a jittered round two asks replicas for
// whatever round one left uncovered, and anything still missing is
// reported stale rather than blocking the answer.
func (c *Coordinator) gatherSlack(ctx context.Context) (*SlackReport, error) {
	_, plans := c.plan()

	slots := make([]*timingd.ScenarioSlack, len(plans))
	var epochs []int64
	fill := func(rep timingd.SlackReport) {
		for i := range rep.Scenarios {
			sc := rep.Scenarios[i]
			for p := range plans {
				if plans[p].name == sc.Scenario && slots[p] == nil {
					cp := sc
					slots[p] = &cp
				}
			}
		}
		epochs = append(epochs, rep.Epoch)
	}

	for round := 0; round < replicaFanout; round++ {
		// Distinct member set for this round: the round-th candidate of
		// every still-uncovered scenario, in scenario order.
		var targets []*member
		for p := range plans {
			if slots[p] != nil || round >= len(plans[p].candidates) {
				continue
			}
			if m := plans[p].candidates[round]; !slices.Contains(targets, m) {
				targets = append(targets, m)
			}
		}
		if len(targets) == 0 {
			continue
		}
		if round > 0 {
			select {
			case <-time.After(c.jitter(c.cfg.RetryDelay)):
			case <-ctx.Done():
				return nil, shardErr(ctx.Err())
			}
			c.count("cluster.slack.replica_retries")
		}
		var mu sync.Mutex
		scatter(ctx, targets, c.cfg.ShardTimeout, func(ctx context.Context, _ int, m *member) error {
			rep, err := m.cl.Slack(ctx)
			if err != nil {
				c.count("cluster.slack.shard_errors")
				return err
			}
			mu.Lock()
			fill(rep)
			mu.Unlock()
			return nil
		})
	}

	// Every response we merged must have been computed at one epoch; a
	// barrier landing mid-gather shows up as skew and the caller retries
	// the whole gather once against the settled epoch.
	var repEpoch int64
	for i, e := range epochs {
		if i == 0 {
			repEpoch = e
		} else if e != repEpoch {
			c.count("cluster.slack.epoch_skew")
			return nil, errEpochSkew
		}
	}

	out := &SlackReport{Epoch: repEpoch}
	for p := range plans {
		if slots[p] == nil {
			out.Stale = append(out.Stale, plans[p].name)
			continue
		}
		out.Scenarios = append(out.Scenarios, *slots[p])
	}
	if len(out.Scenarios) == 0 {
		return nil, serve.Errorf(503, "all %d scenarios stale: no live shard answered", len(plans))
	}
	out.Degraded = len(out.Stale) > 0
	out.Merged = mergeSlacks(out.Scenarios)
	return out, nil
}

// mergeSlacks collapses per-scenario numbers across the set: WNS is the
// min clamped at zero, TNS the sum — what the cluster-merge-identical
// conformance law pins — with the dominating scenario named so the ECO loop
// knows where to look.
func mergeSlacks(scs []timingd.ScenarioSlack) MergedSlack {
	var m MergedSlack
	for _, sc := range scs {
		if sc.SetupWNS < m.SetupWNS {
			m.SetupWNS = sc.SetupWNS
			m.SetupDominant = sc.Scenario
		}
		if sc.HoldWNS < m.HoldWNS {
			m.HoldWNS = sc.HoldWNS
			m.HoldDominant = sc.Scenario
		}
		m.SetupTNS += sc.SetupTNS
		m.HoldTNS += sc.HoldTNS
	}
	return m
}

// scenarioIdx resolves a query's scenario parameter against the
// canonical list ("" = first scenario, matching single-node timingd).
func (c *Coordinator) scenarioIdx(name string) (int, string, error) {
	if name == "" {
		return 0, c.cfg.Scenarios[0], nil
	}
	for idx, n := range c.cfg.Scenarios {
		if n == name {
			return idx, n, nil
		}
	}
	return 0, "", serve.Errorf(400, "unknown scenario %q", name)
}

// proxyScenario runs fn against scenario idx's candidates in preference
// order with jittered pauses between attempts — the single-shard read
// path behind /endpoints and /paths.
func (c *Coordinator) proxyScenario(ctx context.Context, idx int, fn func(ctx context.Context, m *member) error) error {
	c.mu.Lock()
	name := c.cfg.Scenarios[idx]
	cands := c.candidatesFor(name, idx)
	c.mu.Unlock()
	if len(cands) == 0 {
		return serve.Errorf(503, "scenario %q stale: no live shard serves it", name)
	}
	if len(cands) > replicaFanout {
		cands = cands[:replicaFanout]
	}
	var last error
	for i, m := range cands {
		if i > 0 {
			select {
			case <-time.After(c.jitter(c.cfg.RetryDelay)):
			case <-ctx.Done():
				return shardErr(ctx.Err())
			}
			c.count("cluster.proxy.replica_retries")
		}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		err := fn(cctx, m)
		cancel()
		if err == nil {
			return nil
		}
		if se, ok := err.(*client.StatusError); ok && se.Code < 500 {
			// The request itself is bad (unknown kind, bad limit...):
			// a replica would answer identically. Propagate immediately.
			return shardErr(err)
		}
		c.count("cluster.proxy.shard_errors")
		last = err
	}
	return shardErr(last)
}

// gatherWhatIf fans a speculative edit out to a minimal member set
// covering every scenario and merges the per-shard reports in canonical
// order. What-ifs are never partial: an uncovered scenario refuses.
func (c *Coordinator) gatherWhatIf(ctx context.Context, ops []timingd.Op) (*timingd.WhatIfReport, error) {
	_, plans := c.plan()

	// Greedy cover: take the primary of each uncovered scenario; one
	// worker usually covers several scenarios at once.
	covered := make([]bool, len(plans))
	var targets []*member
	for p := range plans {
		if covered[p] {
			continue
		}
		if len(plans[p].candidates) == 0 {
			return nil, serve.Errorf(503, "scenario %q stale: no live shard serves it", plans[p].name)
		}
		m := plans[p].candidates[0]
		targets = append(targets, m)
		for q := range plans {
			if m.serves[plans[q].idx] {
				covered[q] = true
			}
		}
	}

	reports := make([]*timingd.WhatIfReport, len(targets))
	errs := scatter(ctx, targets, c.cfg.WriteTimeout, func(ctx context.Context, i int, m *member) error {
		rep, err := m.cl.WhatIf(ctx, ops)
		if err == nil {
			reports[i] = &rep
		}
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, shardErr(err)
		}
	}

	out := &timingd.WhatIfReport{}
	for i, rep := range reports {
		if i == 0 {
			out.Epoch = rep.Epoch
		} else if rep.Epoch != out.Epoch {
			return nil, errEpochSkew
		}
	}
	var err error
	out.Before, err = mergeScenarioOrder(c.cfg.Scenarios, reports, func(r *timingd.WhatIfReport) []timingd.ScenarioSlack { return r.Before })
	if err != nil {
		return nil, err
	}
	out.After, err = mergeScenarioOrder(c.cfg.Scenarios, reports, func(r *timingd.WhatIfReport) []timingd.ScenarioSlack { return r.After })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mergeScenarioOrder reassembles per-shard scenario slices into the
// canonical recipe order, first answer per scenario wins (replicas are
// bit-identical by construction).
func mergeScenarioOrder(canonical []string, reports []*timingd.WhatIfReport, pick func(*timingd.WhatIfReport) []timingd.ScenarioSlack) ([]timingd.ScenarioSlack, error) {
	slots := make([]*timingd.ScenarioSlack, len(canonical))
	byName := make(map[string]int, len(canonical))
	for i, n := range canonical {
		byName[n] = i
	}
	for _, r := range reports {
		for _, sc := range pick(r) {
			if i, ok := byName[sc.Scenario]; ok && slots[i] == nil {
				cp := sc
				slots[i] = &cp
			}
		}
	}
	out := make([]timingd.ScenarioSlack, 0, len(canonical))
	for i := range slots {
		if slots[i] == nil {
			return nil, serve.Errorf(503, "scenario %q missing from shard reports", canonical[i])
		}
		out = append(out, *slots[i])
	}
	return out, nil
}
