package main

import (
	"fmt"
	"reflect"
	"time"

	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/sta"
)

// batch is the batch_signoff workload: no HTTP, just the engine — repeated
// MCMM surveys of one large design (full propagation × scenarios), then
// complete closure runs on fresh copies of a mid-size one.
type batch struct {
	fx  *fixture
	sc  scale
	res *result
	rec *obs.Recorder // the engine's and the harness's recorder in the traced run

	surveyDesign *netlist.Design
	surveyDur    time.Duration  // circuits.block_ms
	serial       core.Iteration // the one-worker survey every parallel one must equal
}

func (b *batch) engine(d *netlist.Design, workers int) *core.Engine {
	return &core.Engine{
		D: d, Recipe: b.fx.recipe, BasePeriod: basePeriod, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(b.fx.stack, designSeed),
		Workers:    workers, Obs: b.rec,
	}
}

// newBatch is the workload's set-up: the survey design and the serial
// reference survey, which also warms the library's table caches.
func newBatch(fx *fixture, sc scale, res *result, rec *obs.Recorder) (*batch, error) {
	b := &batch{fx: fx, sc: sc, res: res, rec: rec}
	t := time.Now()
	b.surveyDesign = sc.survey(fx.lib)
	b.surveyDur = time.Since(t)
	var err error
	b.serial, err = b.engine(b.surveyDesign, 1).Survey()
	return b, err
}

// batchStats is what one pass of the workload observed.
type batchStats struct {
	surveyMs   []float64
	closeS     []float64
	iterations int // Close() iterations, identical across runs
}

// ops counts the pass's operations: scenario analyses and closures.
func (st *batchStats) ops(fx *fixture) int {
	return len(st.surveyMs)*len(fx.recipe.Scenarios) + len(st.closeS)
}

// surveysPerRound is how many surveys follow each closure: about a quarter
// of a round's time.
const surveysPerRound = 3

// run fills dur with rounds of one closure and surveysPerRound surveys, at
// least minRounds of them; a further round starts only if the last one's
// duration still fits. The two kinds of work alternate so that both figures
// are taken over the whole run: this machine's speed drifts within one.
func (b *batch) run(dur time.Duration, minRounds int) (*batchStats, error) {
	st := &batchStats{}
	par := b.engine(b.surveyDesign, 0)
	var first string
	start := time.Now()
	var round time.Duration
	for i := 0; i < minRounds || time.Since(start)+round <= dur; i++ {
		roundStart := time.Now()
		d := b.sc.closure(b.fx.lib) // Close() edits the netlist, so each gets a fresh one
		e := b.engine(d, 0)
		sp := span(b.rec, "bench.close", nil, i, 0)
		t := time.Now()
		out, err := e.Close()
		st.closeS = append(st.closeS, time.Since(t).Seconds())
		sp.End()
		if err != nil {
			return nil, err
		}
		got := closeDigest(out)
		if i == 0 {
			first, st.iterations = got, len(out.Iterations)
		}
		b.res.check(got == first, "close %d: result differs from the first run's", i)

		for k := 0; k < surveysPerRound; k++ {
			n := len(st.surveyMs)
			sp := span(b.rec, "bench.survey", nil, n, 0)
			t := time.Now()
			it, err := par.Survey()
			st.surveyMs = append(st.surveyMs, ms(time.Since(t)))
			sp.End()
			if err != nil {
				return nil, err
			}
			b.res.check(reflect.DeepEqual(it, b.serial), "survey %d: parallel result differs from serial", n)
		}
		round = time.Since(roundStart)
	}
	return st, nil
}

// closeDigest prints a closure result with every float in full, so that two
// runs compare bit for bit.
func closeDigest(r *core.Result) string {
	s := fmt.Sprintf("closed=%v area=%v leak=%v", r.Closed, r.AreaDelta, r.LeakageDelta)
	for _, it := range append(r.Iterations, r.Final) {
		s += fmt.Sprintf("\n%d %v %v %+v %+v", it.Index, it.MergedSetupWNS, it.MergedHoldWNS, it.Breakdown, it.Scenarios)
	}
	return s
}
