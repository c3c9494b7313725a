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
// index would dominate. Each index lands in exactly one chunk, and fn(lo,
// hi, k) is told its chunk's number k.
func DoChunks(w, n int, fn func(lo, hi, k int)) {
	DoChunksObs(nil, nil, "", w, n, fn)
}

// DoChunksObs is DoChunks with observability: when rec is non-nil, chunk k
// gets a span "<name>:lo-hi" on track k+1 under parent — one span per
// worker lane, cheap even for million-sample Monte Carlo fan-outs. It is a
// single wave of a Gang of its own, so a chunk that panics is handled as a
// job in DoObs is: the other chunks finish, then the lowest chunk's panic
// is raised on the caller.
func DoChunksObs(rec *obs.Recorder, parent *obs.Span, name string, w, n int, fn func(lo, hi, k int)) {
	g := NewGang(rec, parent, name, w)
	defer g.Stop()
	g.Wave(n, fn)
}

// Gang runs waves of chunked work, as DoChunksObs does, on helper
// goroutines started once for many waves: the first wave that fans out
// starts w-1 of them and they wait between waves until Stop. A wave costs
// channel operations and allocates nothing, which is what lets sta split
// every level of a full Run across its workers. Wave and Stop belong to
// one goroutine, the gang's owner, which runs chunk 0 of every wave itself.
type Gang struct {
	rec    *obs.Recorder
	parent *obs.Span
	name   string
	w      int

	wake chan int       // chunk numbers; buffered to a wave's w-1 hand-offs, closed by Stop
	busy sync.WaitGroup // chunks handed out and not done; helpers stopping
	p    firstPanic

	// The wave in flight, written by the owner before it hands out chunks.
	fn      func(lo, hi, k int)
	n, size int
}

// NewGang returns a gang of up to w workers (resolved through Workers)
// whose chunks are recorded as DoChunksObs records them. It starts no
// goroutine.
func NewGang(rec *obs.Recorder, parent *obs.Span, name string, w int) *Gang {
	return &Gang{rec: rec, parent: parent, name: name, w: Workers(w)}
}

// Wave runs fn over contiguous chunks of [0, n), chunk k on the owner when
// k is 0 and on a helper otherwise, and returns when every chunk is done.
// If a chunk panicked, the gang is stopped and the lowest panicking chunk's
// value is raised on the owner.
func (g *Gang) Wave(n int, fn func(lo, hi, k int)) {
	if n <= 0 {
		return
	}
	g.fn, g.n, g.size = fn, n, (n+g.w-1)/g.w
	chunks := (n + g.size - 1) / g.size
	if chunks > 1 && g.wake == nil {
		g.wake = make(chan int, g.w-1)
		for range g.w - 1 {
			go g.helper()
		}
	}
	g.busy.Add(chunks - 1)
	for k := 1; k < chunks; k++ {
		g.wake <- k
	}
	g.run(0)
	g.busy.Wait()
	g.fn = nil
	if g.p.hit {
		v := g.p.val
		g.p.hit, g.p.val = false, nil
		g.Stop()
		panic(v)
	}
}

// Stop ends the helpers and waits for them to exit. A later Wave starts
// new ones; a second Stop does nothing.
func (g *Gang) Stop() {
	if g.wake == nil {
		return
	}
	g.busy.Add(g.w - 1)
	close(g.wake)
	g.busy.Wait()
	g.wake = nil
}

// helper runs the chunks it is handed until Stop.
func (g *Gang) helper() {
	for k := range g.wake {
		g.run(k)
		g.busy.Done()
	}
	g.busy.Done()
}

// run runs chunk k of the wave in flight, keeping its panic for the owner.
func (g *Gang) run(k int) {
	defer g.p.catch(k)
	lo, hi := k*g.size, min((k+1)*g.size, g.n)
	var sp *obs.Span
	if g.rec != nil {
		sp = g.rec.Start(fmt.Sprintf("%s:%d-%d", g.name, lo, hi), g.parent).OnTrack(k + 1)
	}
	g.fn(lo, hi, k)
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
