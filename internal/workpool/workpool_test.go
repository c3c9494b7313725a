package workpool

import (
	"runtime"
	"sync/atomic"
	"testing"

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
		DoChunks(w, n, func(lo, hi int) {
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
			DoChunks(w, n, func(lo, hi int) {
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

// A DoChunks call allocates its shared state once, plus one object per
// goroutine it starts: sta makes one call per parallel level wave. The
// counts include fn, a closure as sta's are, and DoChunks' own adapter.
func TestDoChunksAllocations(t *testing.T) {
	var sum atomic.Int64
	for w, want := range map[int]float64{1: 3, 2: 4, 4: 6} {
		got := testing.AllocsPerRun(100, func() {
			DoChunks(w, 64, func(lo, hi int) { sum.Add(int64(hi - lo)) })
		})
		if got != want {
			t.Errorf("workers %d: DoChunks allocates %v objects per call, want %v", w, got, want)
		}
	}
}
