package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
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

// gather is the coordinator's one scenario read. For every canonical
// scenario slot in slots it asks one live member serving it, through
// fetch(ctx, m, asked), which asks member m for the slots in asked. Round r
// (r < replicaFanout) asks the r-th live candidate of every scenario still
// uncovered, each distinct member once, through scatter with a per-leg
// timeout; a jittered pause, counted under retries, precedes every round
// after the first. A leg's error follows one rule: a 4xx other than 429
// ends the gather at once, since every replica would refuse the request the
// same way; anything else (429, 5xx, transport, timeout) leaves the leg's
// scenarios to the next round. Every successful leg must report one epoch,
// or the result is errEpochSkew, counted under skew; a fetch whose own
// answers straddle a barrier returns errEpochSkew itself.
//
// It returns that epoch and, per canonical slot, the error the slot's last
// leg met (the 503 "no live shard serves it" when it had no candidate), nil
// once a leg covered it or when it was not asked for. /slack reports the
// uncovered scenarios stale; every other route refuses with the first.
func (c *Coordinator) gather(ctx context.Context, slots []int, timeout time.Duration, retries, skew string,
	fetch func(ctx context.Context, m *member, asked []int) (epoch int64, err error)) (int64, []error, error) {
	missing := make([]error, len(c.cfg.Scenarios))
	cands := make([][]*member, len(c.cfg.Scenarios))
	c.mu.Lock()
	for _, idx := range slots {
		name := c.cfg.Scenarios[idx]
		cands[idx] = c.candidatesFor(name, idx)
		missing[idx] = serve.Errorf(503, "scenario %q stale: no live shard serves it", name)
	}
	c.mu.Unlock()

	var epoch int64
	seen := false
	for round := range replicaFanout {
		var targets []*member
		var asked [][]int
		for _, idx := range slots {
			if missing[idx] == nil || round >= len(cands[idx]) {
				continue
			}
			j := slices.Index(targets, cands[idx][round])
			if j < 0 {
				j = len(targets)
				targets, asked = append(targets, cands[idx][round]), append(asked, nil)
			}
			asked[j] = append(asked[j], idx)
		}
		if len(targets) == 0 {
			break
		}
		if round > 0 {
			select {
			case <-time.After(c.jitter(c.cfg.RetryDelay)):
			case <-ctx.Done():
				return 0, missing, shardErr(ctx.Err())
			}
			c.count(retries)
		}
		epochs := make([]int64, len(targets))
		errs := scatter(ctx, targets, timeout, func(ctx context.Context, j int, m *member) (err error) {
			epochs[j], err = fetch(ctx, m, asked[j])
			return err
		})
		for j, err := range errs {
			if err == nil && seen && epochs[j] != epoch {
				err = errEpochSkew
			}
			if err == errEpochSkew {
				c.count(skew)
				return 0, missing, errEpochSkew
			}
			if se, ok := err.(*client.StatusError); ok && se.Code < 500 && se.Code != http.StatusTooManyRequests {
				return 0, missing, shardErr(err)
			}
			var slotErr error
			if err == nil {
				epoch, seen = epochs[j], true
			} else {
				slotErr = shardErr(err)
			}
			for _, idx := range asked[j] {
				missing[idx] = slotErr
			}
		}
	}
	return epoch, missing, nil
}

// pick copies a shard's entries for the asked scenarios into their
// canonical slots of dst: the one canonical-order merge of the
// per-scenario lists /slack, /whatif and the barrier answer with.
func (c *Coordinator) pick(dst []timingd.ScenarioSlack, asked []int, src []timingd.ScenarioSlack) error {
	for _, idx := range asked {
		name := c.cfg.Scenarios[idx]
		k := slices.IndexFunc(src, func(sc timingd.ScenarioSlack) bool { return sc.Scenario == name })
		if k < 0 {
			return fmt.Errorf("shard reported no scenario %q", name)
		}
		dst[idx] = src[k]
	}
	return nil
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
