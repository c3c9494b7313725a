package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"time"

	"newgame/internal/obs"
	"newgame/internal/timingd"
)

const triageEvery = 8

// loopStats is what one replay of the eco loop observed, in milliseconds.
type loopStats struct {
	iter, whatif, commit, coldRead, triage []float64
	poll, lateness                         []float64
	elapsed                                time.Duration
}

// ecoLoop drives the Figure-1 loop against a target: one closed-loop
// client doing what-if → commit → re-read, and beside it one open-loop
// poller (poller.go) reading /slack on a fixed schedule.
type ecoLoop struct {
	tg   *target
	plan *ecoPlan
	res  *result
	rec  *obs.Recorder // nil when untraced

	setupScenario, holdScenario string
	epoch                       int64
	reqID                       int
	sampled                     []obs.SpanNode // span trees from ?debug=trace answers
}

// newECOLoop reads the baseline once to learn which scenarios the loop's
// path and endpoint queries should look at: the worst setup and the worst
// hold scenario, as a debugging engineer would.
func newECOLoop(fx *fixture, tg *target, seed int64, res *result, rec *obs.Recorder) (*ecoLoop, error) {
	plan, err := newECOPlan(tg.design, fx.lib, seed)
	if err != nil {
		return nil, err
	}
	base, err := getJSON[timingd.SlackReport](tg.front, "/slack")
	if err != nil {
		return nil, err
	}
	l := &ecoLoop{tg: tg, plan: plan, res: res, rec: rec, epoch: base.Epoch}
	for i, sc := range fx.recipe.Scenarios {
		row := base.Scenarios[i]
		if sc.ForSetup && (l.setupScenario == "" || row.SetupWNS < worstOf(base, l.setupScenario).SetupWNS) {
			l.setupScenario = sc.Name
		}
		if sc.ForHold && (l.holdScenario == "" || row.HoldWNS < worstOf(base, l.holdScenario).HoldWNS) {
			l.holdScenario = sc.Name
		}
	}
	return l, nil
}

func worstOf(rep timingd.SlackReport, name string) timingd.ScenarioSlack {
	for _, row := range rep.Scenarios {
		if row.Scenario == name {
			return row
		}
	}
	return timingd.ScenarioSlack{}
}

// run replays the loop for dur, or for maxIters iterations if that is
// positive, and returns what it observed. Correctness checks go to l.res.
func (l *ecoLoop) run(dur time.Duration, maxIters int) (*loopStats, error) {
	ctx := context.Background()
	tag := ""
	if l.rec != nil {
		tag = l.res.Workload
	}
	w := newWire(l.tg.url, tag)
	defer w.close()
	st := &loopStats{}

	var poller *pollerProc
	if maxIters <= 0 { // warm-up passes run without the poller
		tag := ""
		if l.rec != nil {
			tag = l.res.Workload + "-poll"
		}
		var err error
		if poller, err = startPoller(l.tg.url, tag); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	var err error
	for i := 0; (maxIters > 0 && i < maxIters) || (maxIters <= 0 && time.Since(start) < dur); i++ {
		if err = l.iteration(ctx, w, st, i); err != nil {
			break
		}
	}
	st.elapsed = time.Since(start)
	if poller != nil {
		ps, perr := poller.stop()
		if perr != nil {
			return nil, perr
		}
		st.poll, st.lateness = ps.Latency, ps.Lateness
		l.res.Attempted += ps.Requests
		if ps.Failed > 0 {
			l.res.Failed += ps.Failed - 1
			l.res.failf("poller: %d of %d requests failed, first: %s", ps.Failed, ps.Requests, ps.FirstErr)
		}
	}
	return st, err
}

// iteration is one trip round the loop. Only a failed commit is fatal: it
// leaves the harness not knowing the netlist's state.
func (l *ecoLoop) iteration(ctx context.Context, w *wire, st *loopStats, i int) error {
	res := l.res
	l.reqID++
	req := l.reqID
	it := span(l.rec, "bench.iter", nil, req, 0)
	defer it.End()
	phase := func(name string, fn func() error) (float64, error) {
		sp := span(l.rec, name, it, req, 0)
		t := time.Now()
		err := fn()
		d := ms(time.Since(t))
		sp.End()
		return d, err
	}
	ops := []timingd.Op{l.plan.peek()}
	t0 := time.Now()

	var wi, eco timingd.WhatIfReport
	d, err := phase("client.whatif", func() (err error) { wi, err = w.WhatIf(ctx, ops); return })
	st.whatif = append(st.whatif, d)
	res.check(err == nil && wi.Epoch == l.epoch && !wi.Committed, "iter %d: whatif: err=%v epoch=%d want %d", i, err, wi.Epoch, l.epoch)

	d, err = phase("client.eco", func() (err error) { eco, err = w.Commit(ctx, ops); return })
	st.commit = append(st.commit, d)
	if !res.check(err == nil, "iter %d: eco: %v", i, err) {
		return fmt.Errorf("commit %d failed: %w", i, err)
	}
	l.plan.advance()
	l.epoch++
	res.check(eco.Committed && eco.Epoch == l.epoch, "iter %d: eco epoch %d, want %d (the iteration count)", i, eco.Epoch, l.epoch)
	res.check(reflect.DeepEqual(wi.After, eco.After), "iter %d: what-if predicted %v, commit produced %v", i, wi.After, eco.After)

	var slack timingd.SlackReport
	d, err = phase("client.slack", func() (err error) { slack, err = w.Slack(ctx); return })
	st.coldRead = append(st.coldRead, d)
	res.check(err == nil && slack.Epoch == l.epoch && reflect.DeepEqual(slack.Scenarios, eco.After),
		"iter %d: /slack after commit: err=%v epoch=%d rows=%v, commit said epoch %d rows %v", i, err, slack.Epoch, slack.Scenarios, l.epoch, eco.After)

	_, err = phase("client.paths", func() error {
		rep, err := w.Paths(ctx, l.setupScenario, "setup", 10)
		if err == nil && (rep.Epoch != l.epoch || len(rep.Paths) == 0) {
			err = fmt.Errorf("epoch %d, %d paths", rep.Epoch, len(rep.Paths))
		}
		return err
	})
	res.check(err == nil, "iter %d: /paths: %v", i, err)

	_, err = phase("client.endpoints", func() error {
		rep, err := w.Endpoints(ctx, l.holdScenario, "hold", 50)
		if err == nil && (rep.Epoch != l.epoch || len(rep.Endpoints) == 0) {
			err = fmt.Errorf("epoch %d, %d endpoints", rep.Epoch, len(rep.Endpoints))
		}
		return err
	})
	res.check(err == nil, "iter %d: /endpoints: %v", i, err)

	if i%triageEvery == 0 {
		d, err = phase("client.triage", func() error {
			body, err := w.get(ctx, "/triage")
			if err == nil && !bytes.HasPrefix(body, []byte(fmt.Sprintf(`{"epoch":%d,`, l.epoch))) {
				err = fmt.Errorf("answer is not at epoch %d: %.40s", l.epoch, body)
			}
			return err
		})
		st.triage = append(st.triage, d)
		res.check(err == nil, "iter %d: /triage: %v", i, err)
		// One sampled request per triage round also asks the server for the
		// span tree of that request. Coordinators have no ?debug=trace; the
		// answer is then not an envelope and nothing is kept.
		if l.rec != nil {
			l.sampleServerTrace(ctx, w, it, req)
		}
	}
	st.iter = append(st.iter, ms(time.Since(t0)))
	return nil
}

func (l *ecoLoop) sampleServerTrace(ctx context.Context, w *wire, parent *obs.Span, req int) {
	sp := span(l.rec, "client.slack_traced", parent, req, 0)
	body, err := w.get(ctx, "/slack?debug=trace")
	sp.End()
	var env timingd.TraceReport
	if err == nil && json.Unmarshal(body, &env) == nil && env.TraceID != "" {
		l.sampled = append(l.sampled, env.Spans...)
	}
}

// checkFinalState compares the target's final answers with a reference: a
// fresh single node over the same design, taken to the same netlist by one
// batch commit. For node_eco_loop this pins "hundreds of incremental
// commits equal one from scratch"; for cluster_eco_loop it is the ISSUE's
// "final /slack rows and /triage bytes equal the single node's" — both
// workloads are held to the same reference, whatever iteration count each
// reached.
func (l *ecoLoop) checkFinalState(fx *fixture) error {
	cfg := fx.serverConfig()
	cfg.Design = l.tg.design
	ref, err := timingd.NewServer(cfg)
	if err != nil {
		return err
	}
	defer ref.Close()
	if ops := l.plan.netOps(l.tg.design); len(ops) > 0 {
		if _, err := postJSON[timingd.WhatIfReport](ref, "/eco", opsBody{ops}); err != nil {
			return err
		}
	}
	want, err := getJSON[timingd.SlackReport](ref, "/slack")
	if err != nil {
		return err
	}
	got, err := getJSON[timingd.SlackReport](l.tg.front, "/slack")
	l.res.check(err == nil && got.Epoch == l.epoch && reflect.DeepEqual(got.Scenarios, want.Scenarios),
		"final /slack: err=%v epoch=%d (want %d) rows=%v, reference rows=%v", err, got.Epoch, l.epoch, got.Scenarios, want.Scenarios)

	_, wantTriage := call(ref, http.MethodGet, "/triage", nil)
	code, gotTriage := call(l.tg.front, http.MethodGet, "/triage", nil)
	l.res.check(code == http.StatusOK && bytes.Equal(afterEpoch(gotTriage), afterEpoch(wantTriage)),
		"final /triage differs from the reference: status %d, %d vs %d bytes", code, len(gotTriage), len(wantTriage))
	return nil
}

// afterEpoch strips the leading {"epoch":N, of a report: the reference
// reached the same netlist in one commit, so only its epoch differs.
func afterEpoch(body []byte) []byte {
	_, rest, _ := bytes.Cut(bytes.TrimSpace(body), []byte(","))
	return rest
}
