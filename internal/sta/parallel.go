package sta

import (
	"runtime"
	"sync"
)

// workers resolves Cfg.Workers: 0 means one worker per available CPU;
// anything below 1 forces serial execution.
func (a *Analyzer) workers() int {
	w := a.Cfg.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs fn over contiguous chunks of [0, n) on up to w
// goroutines and blocks until every chunk is done. Each index lands in
// exactly one chunk, so callers get per-element exclusivity for free; k
// numbers the chunks from 0 (below w), for per-worker scratch.
func parallelFor(w, n int, fn func(k, lo, hi int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for k, lo := 0, 0; lo < n; k, lo = k+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			fn(k, lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
}
