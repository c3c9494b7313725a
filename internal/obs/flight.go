package obs

import (
	"sync/atomic"
	"time"
)

// The flight recorder is the daemon's black box: two fixed-size lock-free
// rings holding the last N requests and the last M commits, always on, so
// "why did that query take 40 ms an hour ago" is answerable without a
// restart or a debug rebuild. Writers never block and never wait on
// readers; readers copy whole records through atomic pointers, so a
// snapshot can race any number of writers without locks or torn values.

// Ring is a fixed-capacity lock-free multi-producer ring with overwrite
// semantics: Put claims the next slot by atomic ticket and the record
// cap tickets older is overwritten. Slots hold atomic pointers to
// immutable records, which is what makes concurrent Snapshot safe (and
// race-detector-clean) without a lock: a reader either sees a complete
// record or skips the slot.
type Ring[T any] struct {
	slots   []atomic.Pointer[ringRec[T]]
	mask    uint64
	cursor  atomic.Uint64 // next ticket
	dropped atomic.Uint64
}

// ringRec tags a record with the ticket that wrote it, so readers can
// tell a slot's current lap from a stale or half-lapped one.
type ringRec[T any] struct {
	ticket uint64
	val    T
}

// NewRing returns a ring holding the last capacity records (rounded up to
// a power of two, minimum 2).
func NewRing[T any](capacity int) *Ring[T] {
	c := 2
	for c < capacity {
		c <<= 1
	}
	return &Ring[T]{slots: make([]atomic.Pointer[ringRec[T]], c), mask: uint64(c - 1)}
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Len returns the occupancy: how many records a Snapshot can return at
// most (recorded so far, bounded by capacity).
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	n := r.cursor.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Dropped counts Puts abandoned because a writer holding a *newer*
// ticket already filled the slot — possible only when concurrent writers
// outnumber the ring capacity, so normally zero.
func (r *Ring[T]) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Put records v, overwriting the record cap tickets older. Nil-safe,
// non-blocking, safe from any number of goroutines.
func (r *Ring[T]) Put(v T) {
	if r == nil {
		return
	}
	n := r.cursor.Add(1) - 1
	rec := &ringRec[T]{ticket: n, val: v}
	slot := &r.slots[n&r.mask]
	for {
		cur := slot.Load()
		if cur != nil && cur.ticket > n {
			// A full lap overtook this writer mid-flight; dropping keeps
			// the slot's newer record instead of regressing it.
			r.dropped.Add(1)
			return
		}
		if slot.CompareAndSwap(cur, rec) {
			return
		}
	}
}

// Snapshot returns up to limit records, newest first (limit <= 0 means
// all). Slots mid-overwrite are skipped, never returned torn.
func (r *Ring[T]) Snapshot(limit int) []T {
	if r == nil {
		return nil
	}
	newest := r.cursor.Load()
	if newest == 0 {
		return nil
	}
	span := uint64(len(r.slots))
	if newest < span {
		span = newest
	}
	if limit <= 0 || uint64(limit) > span {
		limit = int(span)
	}
	out := make([]T, 0, limit)
	for i := uint64(0); i < span && len(out) < limit; i++ {
		n := newest - 1 - i
		rec := r.slots[n&r.mask].Load()
		if rec == nil || rec.ticket != n {
			continue // ticket n in flight, dropped, or already lapped
		}
		out = append(out, rec.val)
	}
	return out
}

// MsSince is the elapsed wall time since t in fractional milliseconds, the
// unit every flight record and latency histogram uses.
func MsSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// RequestRecord is one served request in the flight recorder.
type RequestRecord struct {
	// Start is the request's arrival time.
	Start time.Time `json:"start"`
	// Route is the handler route ("slack", "eco", ...).
	Route string `json:"route"`
	// TraceID is the request's X-Trace-Id (accepted or generated).
	TraceID string `json:"trace_id"`
	// Epoch is the commit epoch the answer was computed at (-1 when the
	// request never resolved a snapshot, e.g. a 429 refusal).
	Epoch int64 `json:"epoch"`
	// Cache reports the query-cache outcome: "hit", "miss", or "" for
	// routes that bypass the cache.
	Cache string `json:"cache,omitempty"`
	// Status is the HTTP status answered.
	Status int `json:"status"`
	// LatencyMs is the wall time from admission to answer.
	LatencyMs float64 `json:"latency_ms"`
	// SlowestChild names the slowest child phase of the request (render,
	// writer pipeline, ...) and its duration.
	SlowestChild   string  `json:"slowest_child,omitempty"`
	SlowestChildMs float64 `json:"slowest_child_ms,omitempty"`
}

// CommitRecord is one ECO commit's audit timeline in the flight recorder.
type CommitRecord struct {
	// Start is when the writer pipeline picked the commit up.
	Start time.Time `json:"start"`
	// Epoch is the epoch the commit published (0 for a failed commit that
	// never advanced it).
	Epoch int64 `json:"epoch"`
	// TraceID links the commit to the /eco request that carried it.
	TraceID string `json:"trace_id,omitempty"`
	// OpsApplied is the size of the committed op batch.
	OpsApplied int `json:"ops_applied"`
	// CachePurged counts query-cache entries invalidated by the swap.
	CachePurged int `json:"cache_purged"`
	// Per-phase durations of the writer pipeline: resolving ops against
	// the session, applying edits + re-timing, and publishing the epoch
	// (cache purge + epoch bump). ReplayMs stays 0: a commit is applied
	// once; the field is kept so readers of the record keep decoding it.
	ResolveMs float64 `json:"resolve_ms"`
	ApplyMs   float64 `json:"apply_ms"`
	SwapMs    float64 `json:"swap_ms"`
	ReplayMs  float64 `json:"replay_ms"`
	// TotalMs is the full writer-pipeline wall time.
	TotalMs float64 `json:"total_ms"`
	// Err carries the failure for commits that errored or degraded the
	// server; successful commits leave it empty.
	Err string `json:"err,omitempty"`
}

// FlightRecorder pairs the two always-on rings.
type FlightRecorder struct {
	Requests *Ring[RequestRecord]
	Commits  *Ring[CommitRecord]
}

// NewFlightRecorder sizes the rings for the last nRequests requests and
// nCommits commits (each rounded up to a power of two).
func NewFlightRecorder(nRequests, nCommits int) *FlightRecorder {
	return &FlightRecorder{
		Requests: NewRing[RequestRecord](nRequests),
		Commits:  NewRing[CommitRecord](nCommits),
	}
}
