package workpool

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"newgame/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != 1 {
		t.Fatalf("Workers(-3) = %d, want 1", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d, want 5", got)
	}
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		const n = 137
		counts := make([]int32, n)
		Do(w, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, c)
			}
		}
	}
	ran := false
	Do(4, 0, func(int) { ran = true })
	if ran {
		t.Fatal("Do with n=0 ran a job")
	}
}

func TestDoChunksPartition(t *testing.T) {
	for _, w := range []int{1, 3, 4, 32} {
		const n = 101
		counts := make([]int32, n)
		DoChunks(w, n, func(lo, hi, _ int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", w, i, c)
			}
		}
	}
}

func TestDoObsRecordsLaneSpans(t *testing.T) {
	rec := obs.NewRecorder()
	var total int32
	DoObs(rec, nil, "pool.test", 4, 20, func(i, g int) {
		if g < 0 || g >= 4 {
			t.Errorf("worker id %d out of range", g)
		}
		atomic.AddInt32(&total, 1)
	})
	if total != 20 {
		t.Fatalf("ran %d of 20 jobs", total)
	}
}

// Job 0 runs on the calling goroutine as worker 0, and worker g starts on
// job g, so a caller may prepare job 0 as worker 0's before the fan-out.
func TestDoObsFirstJobs(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		first := make([]int32, w)
		for g := range first {
			first[g] = -1
		}
		DoObs(nil, nil, "", w, 20, func(i, g int) {
			atomic.CompareAndSwapInt32(&first[g], -1, int32(i))
		})
		for g, i := range first {
			if int(i) != g {
				t.Errorf("workers %d: worker %d's first job was %d", w, g, i)
			}
		}
	}
}

type boom struct{ job int }

// A panicking job does not stop the pool: every other job runs, and the
// caller gets the lowest panicking job's value, intact — serial or not, by
// index or by chunk.
func TestPanicReachesCallerAfterEveryJob(t *testing.T) {
	catch := func(run func()) (r any) {
		defer func() { r = recover() }()
		run()
		return nil
	}
	for _, w := range []int{1, 4} {
		const n = 40
		var ran [n]atomic.Int32
		r := catch(func() {
			DoObs(obs.NewRecorder(), nil, "panic.test", w, n, func(i, _ int) {
				ran[i].Add(1)
				if i == 7 || i == 23 {
					panic(&boom{i})
				}
			})
		})
		if b, ok := r.(*boom); !ok || b.job != 7 {
			t.Errorf("workers %d: DoObs re-raised %v, want job 7's *boom", w, r)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Errorf("workers %d: job %d ran %d times", w, i, ran[i].Load())
			}
		}

		var covered atomic.Int32
		r = catch(func() {
			DoChunks(w, n, func(lo, hi, _ int) {
				covered.Add(int32(hi - lo))
				if hi == n {
					panic(boom{hi})
				}
			})
		})
		if b, ok := r.(boom); !ok || b.job != n || covered.Load() != n {
			t.Errorf("workers %d: DoChunks re-raised %v after covering %d of %d", w, r, covered.Load(), n)
		}
	}
}

// A DoChunks call is one wave of a gang of its own: it allocates the gang,
// plus the channel and one object per goroutine when it starts helpers.
// The counts include fn, a closure as the callers' are.
func TestDoChunksAllocations(t *testing.T) {
	var sum atomic.Int64
	for w, want := range map[int]float64{1: 2, 2: 4, 4: 6} {
		got := testing.AllocsPerRun(100, func() {
			DoChunks(w, 64, func(lo, hi, _ int) { sum.Add(int64(hi - lo)) })
		})
		if got != want {
			t.Errorf("workers %d: DoChunks allocates %v objects per call, want %v", w, got, want)
		}
	}
}

// A gang's waves allocate nothing once its helpers run: the helpers and
// their channel are the gang's, not the wave's.
func TestGangWaveAllocations(t *testing.T) {
	var sum atomic.Int64
	fn := func(lo, hi, _ int) { sum.Add(int64(hi - lo)) }
	for _, w := range []int{1, 2, 4} {
		g := NewGang(nil, nil, "", w)
		g.Wave(64, fn)
		if got := testing.AllocsPerRun(100, func() { g.Wave(64, fn) }); got != 0 {
			t.Errorf("workers %d: a wave allocates %v objects, want 0", w, got)
		}
		g.Stop()
	}
}

// Across many waves of every width, including waves narrower than the gang
// and empty ones, each index is covered exactly once per wave and chunk k
// is the k-th contiguous chunk.
func TestGangCoversEveryIndexOncePerWave(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 16} {
		g := NewGang(nil, nil, "", w)
		for wave := 0; wave < 300; wave++ {
			n := wave % 101
			counts := make([]int32, n)
			var chunks atomic.Int32
			g.Wave(n, func(lo, hi, k int) {
				size := (n + w - 1) / w
				if lo != k*size || hi != min(lo+size, n) {
					t.Errorf("workers %d, n %d: chunk %d is [%d,%d)", w, n, k, lo, hi)
				}
				chunks.Add(1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers %d, wave %d: index %d covered %d times", w, wave, i, c)
				}
			}
			if n > 0 && int(chunks.Load()) > w {
				t.Fatalf("workers %d, n %d: %d chunks", w, n, chunks.Load())
			}
		}
		g.Stop()
	}
}

// settledGoroutines waits until the goroutine count falls to want, which a
// stopped helper reaches just after it signals its exit.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A panicking chunk is raised on the owner after its wave — every other
// chunk ran — with the lowest panicking chunk's value, and the gang's
// helpers are stopped by then.
func TestGangPanicStopsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGang(obs.NewRecorder(), nil, "gang.test", 4)
	g.Wave(40, func(int, int, int) {}) // the helpers are running
	var ran atomic.Int32
	r := func() (r any) {
		defer func() { r = recover() }()
		g.Wave(40, func(lo, hi, k int) {
			ran.Add(int32(hi - lo))
			if k >= 2 {
				panic(boom{k})
			}
		})
		return nil
	}()
	if b, ok := r.(boom); !ok || b.job != 2 || ran.Load() != 40 {
		t.Fatalf("Wave re-raised %v after covering %d of 40, want chunk 2's boom after 40", r, ran.Load())
	}
	if n := settledGoroutines(base); n != base {
		t.Fatalf("%d goroutines after the panicking wave, want %d", n, base)
	}
}

// No goroutine outlives a gang's owner, however its run of waves ends:
// completed and stopped, abandoned between waves (what a cancelled sta Run
// does) and stopped, or ended by a panicking wave.
func TestGangLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	fn := func(int, int, int) {}
	for _, end := range []string{"complete", "cancel", "panic"} {
		func() {
			defer func() { recover() }()
			g := NewGang(nil, nil, "", 4)
			defer g.Stop()
			for wave := 0; wave < 50; wave++ {
				switch {
				case end == "cancel" && wave == 10:
					return
				case end == "panic" && wave == 10:
					g.Wave(64, func(int, int, int) { panic("chunk") })
				}
				g.Wave(64, fn)
			}
		}()
		if n := settledGoroutines(base); n != base {
			t.Errorf("%s: %d goroutines after the gang's owner returned, want %d", end, n, base)
		}
	}
}
