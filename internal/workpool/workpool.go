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
// i on worker g. When rec is non-nil, each job gets a span named
// "<name>:<i>" on track g+1 under parent, and worker g's
// "<name>.worker_NN.jobs" counter is bumped — the characterization
// equivalent of a survey's scenario lanes. A nil rec records nothing and
// costs one nil check per job.
func DoObs(rec *obs.Recorder, parent *obs.Span, name string, w, n int, fn func(i, g int)) {
	if n <= 0 {
		return
	}
	runOne := func(i, g int) {
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
	w = Workers(w)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			runOne(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range next {
				runOne(i, g)
			}
		}(g)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
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
// million-sample Monte Carlo fan-outs.
func DoChunksObs(rec *obs.Recorder, parent *obs.Span, name string, w, n int, fn func(lo, hi, g int)) {
	if n <= 0 {
		return
	}
	runChunk := func(lo, hi, g int) {
		var sp *obs.Span
		if rec != nil {
			sp = rec.Start(fmt.Sprintf("%s:%d-%d", name, lo, hi), parent).OnTrack(g + 1)
		}
		fn(lo, hi, g)
		sp.End()
	}
	w = Workers(w)
	if w > n {
		w = n
	}
	if w <= 1 {
		runChunk(0, n, 0)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	g := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi, g int) {
			defer wg.Done()
			runChunk(lo, hi, g)
		}(lo, hi, g)
		g++
	}
	wg.Wait()
}
