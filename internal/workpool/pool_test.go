package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryJob(t *testing.T) {
	p := NewPool(4, 8)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		for !p.TrySubmit(func() { n.Add(1); wg.Done() }) {
			runtime.Gosched() // queue full: wait for the workers to drain it
		}
	}
	wg.Wait()
	p.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", n.Load())
	}
}

func TestPoolTrySubmitBackpressure(t *testing.T) {
	// One worker, queue of 2; block the worker so the queue fills.
	p := NewPool(1, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	if !p.TrySubmit(func() { close(started); <-release }) {
		t.Fatal("TrySubmit refused on an empty queue")
	}
	<-started
	// Worker busy; fill the queue.
	for i := 0; p.TrySubmit(func() {}); i++ {
		if i > 2 {
			t.Fatal("queue accepted more than its capacity")
		}
	}
	// Now full: further TrySubmit must refuse, not block.
	if p.TrySubmit(func() {}) {
		t.Fatal("TrySubmit accepted into a full queue")
	}
	close(release)
	p.Close()
}

func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2, 16)
	var n atomic.Int64
	for i := 0; i < 16; i++ {
		if !p.TrySubmit(func() { n.Add(1) }) {
			t.Fatal("TrySubmit refused below queue capacity")
		}
	}
	p.Close()
	if n.Load() != 16 {
		t.Fatalf("Close returned before draining: %d of 16 jobs ran", n.Load())
	}
}

func TestPoolDoubleCloseAndSubmitAfterClose(t *testing.T) {
	p := NewPool(2, 4)
	p.Close()
	p.Close() // must not panic
	if p.TrySubmit(func() { t.Error("job ran after Close") }) {
		t.Fatal("TrySubmit accepted after Close")
	}
}

func TestPoolConcurrentSubmitAndClose(t *testing.T) {
	// Hammer TrySubmit from many goroutines while Close races in; every
	// accepted job must run exactly once and nothing may panic.
	p := NewPool(4, 32)
	var accepted, ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if p.TrySubmit(func() { ran.Add(1) }) {
					accepted.Add(1)
				}
			}
		}()
	}
	p.Close()
	wg.Wait()
	// Every admission happened before the closed flag was set, so Close's
	// drain ran it; refusals never ran. The two counters must agree.
	if accepted.Load() != ran.Load() {
		t.Fatalf("accepted %d jobs but ran %d", accepted.Load(), ran.Load())
	}
}
