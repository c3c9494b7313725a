// Package workpool is the bounded worker pool shared by a survey's scenario
// fan-out (core.Views), sta's net and level sweeps and the characterization
// pipeline (liberty generation, Monte Carlo variation fan-out, flip-flop
// search sweeps). It follows the determinism rule of the concurrent signoff
// engine: workers only decide *who* computes an indexed job, never *what* is
// computed — every job writes to its own index, so results are
// byte-identical for any worker count, including serial.
//
// Observability piggybacks on the same lane model as a survey's scenarios:
// when a recorder is attached each job gets a span on its worker's trace
// track and bumps that worker's occupancy counter, so characterization pool
// packing is visible in Perfetto next to the signoff lanes.
package workpool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"newgame/internal/obs"
)

// Workers resolves a worker-count knob: 0 means one worker per available
// CPU, anything below 1 forces serial execution.
func Workers(w int) int {
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(i) for every i in [0, n) on up to w goroutines (after
// resolving w through Workers). Jobs are handed out dynamically, so uneven
// job costs still pack well; each index is processed exactly once.
func Do(w, n int, fn func(i int)) {
	DoObs(nil, nil, "", w, n, func(i, _ int) { fn(i) })
}

// DoObs is Do with observability and the worker-lane id: fn(i, g) runs job
// i on worker g. Worker 0 is the calling goroutine, and worker g's first job
// is job g, so job 0 always runs on the caller; the rest are claimed in index
// order as workers free up. When rec is non-nil, each job gets a span named
// "<name>:<i>" on track g+1 under parent, and worker g's
// "<name>.worker_NN.jobs" counter is bumped — the characterization
// equivalent of a survey's scenario lanes. A nil rec records nothing and
// costs one nil check per job.
//
// A job that panics does not stop the others: every job runs, and then the
// panic of the lowest job index that panicked is raised again on the caller,
// its value intact — what a serial loop would have met first.
func DoObs(rec *obs.Recorder, parent *obs.Span, name string, w, n int, fn func(i, g int)) {
	if n <= 0 {
		return
	}
	var p firstPanic
	runOne := func(i, g int) {
		defer p.catch(i)
		var sp *obs.Span
		if rec != nil {
			sp = rec.Start(fmt.Sprintf("%s:%d", name, i), parent).OnTrack(g + 1)
		}
		fn(i, g)
		sp.End()
		if rec != nil {
			rec.Counter(fmt.Sprintf("%s.worker_%02d.jobs", name, g)).Add(1)
		}
	}
	w = min(Workers(w), n)
	var next atomic.Int64
	next.Store(int64(w))
	lane := func(g int) {
		for i := g; i < n; i = int(next.Add(1) - 1) {
			runOne(i, g)
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane(g)
		}(g)
	}
	lane(0)
	wg.Wait()
	p.rethrow()
}

// DoChunks runs fn over contiguous chunks of [0, n) on up to w goroutines
// and blocks until every chunk is done — the right shape when per-job work
// is tiny and uniform (e.g. one Monte Carlo draw) and channel dispatch per
// index would dominate. Each index lands in exactly one chunk.
func DoChunks(w, n int, fn func(lo, hi int)) {
	DoChunksObs(nil, nil, "", w, n, func(lo, hi, _ int) { fn(lo, hi) })
}

// DoChunksObs is DoChunks with observability: fn(lo, hi, g) runs chunk g
// (one per worker) and, when rec is non-nil, gets a span "<name>:lo-hi" on
// track g+1 under parent — one span per worker lane, cheap even for
// million-sample Monte Carlo fan-outs. A chunk that panics is handled as a
// job in DoObs is: the other chunks finish, then the lowest chunk's panic is
// raised on the caller.
//
// sta calls it once per parallel level wave, so a call allocates its shared
// state once and one object per goroutine it starts beyond the caller's.
func DoChunksObs(rec *obs.Recorder, parent *obs.Span, name string, w, n int, fn func(lo, hi, g int)) {
	if n <= 0 {
		return
	}
	c := &chunks{rec: rec, parent: parent, name: name, fn: fn}
	w = min(Workers(w), n)
	chunk := (n + w - 1) / w
	for g, lo := 1, chunk; lo < n; g, lo = g+1, lo+chunk {
		c.wg.Add(1)
		go c.lane(lo, min(lo+chunk, n), g)
	}
	c.run(0, min(chunk, n), 0)
	c.wg.Wait()
	c.p.rethrow()
}

// chunks is one DoChunksObs call's shared state.
type chunks struct {
	p      firstPanic
	wg     sync.WaitGroup
	rec    *obs.Recorder
	parent *obs.Span
	name   string
	fn     func(lo, hi, g int)
}

// lane runs chunk g on a goroutine of its own.
func (c *chunks) lane(lo, hi, g int) {
	defer c.wg.Done()
	c.run(lo, hi, g)
}

// run runs chunk g, keeping its panic for the caller.
func (c *chunks) run(lo, hi, g int) {
	defer c.p.catch(g)
	var sp *obs.Span
	if c.rec != nil {
		sp = c.rec.Start(fmt.Sprintf("%s:%d-%d", c.name, lo, hi), c.parent).OnTrack(g + 1)
	}
	c.fn(lo, hi, g)
	sp.End()
}

// firstPanic keeps, of the jobs that panicked, the lowest index's value.
type firstPanic struct {
	mu  sync.Mutex
	hit bool
	i   int
	val any
}

// catch, deferred by job i, recovers its panic and keeps it if no lower job's
// is kept already.
func (p *firstPanic) catch(i int) {
	r := recover()
	if r == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hit || i < p.i {
		p.hit, p.i, p.val = true, i, r
	}
}

// rethrow raises the kept panic, if any, on the calling goroutine.
func (p *firstPanic) rethrow() {
	if p.hit {
		panic(p.val)
	}
}
