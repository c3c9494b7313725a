package workpool

import "sync"

// Pool is a persistent bounded worker pool for services that outlive any
// single fan-out: a fixed set of worker goroutines drains a fixed-capacity
// job queue until Close. It complements Do/DoChunks (one-shot fan-outs that
// spin workers per call) — a resident daemon admitting requests wants the
// workers already running and, crucially, wants *bounded admission*:
// TrySubmit refuses instead of blocking when the queue is full, giving the
// caller a backpressure signal it can turn into a 429.
//
// Lifecycle safety is part of the contract: Close drains every job already
// admitted before returning, a second Close is a no-op, and TrySubmit after
// (or racing with) Close safely refuses rather than panicking on a closed
// channel.
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup

	// mu guards closed and, held shared, protects senders from a
	// concurrent close(jobs): submitters hold RLock across the send, Close
	// takes Lock to flip closed before closing the channel, so no send can
	// be in flight when the channel closes.
	mu     sync.RWMutex
	closed bool
}

// NewPool starts a pool with the given worker count (resolved through
// Workers: 0 means one per CPU) and job-queue capacity (minimum 1).
func NewPool(workers, queue int) *Pool {
	if queue < 1 {
		queue = 1
	}
	p := &Pool{jobs: make(chan func(), queue)}
	w := Workers(workers)
	p.wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				fn()
			}
		}()
	}
	return p
}

// TrySubmit enqueues fn if the queue has room and the pool is open. It
// never blocks: a full queue or a closed pool returns false immediately —
// the admission-control signal a request handler converts to backpressure.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.jobs <- fn:
		return true
	default:
		return false
	}
}

// Close stops admission, waits for every already-admitted job to finish,
// and returns. Safe to call more than once; later calls wait for the same
// drain and return.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
