package sta

import "unsafe"

// slab is one per-analyzer array — a per-vertex plane, the arc groups, the
// net cache — held in two segments: kept, what the last derivation sized
// (see fold), and app, what patches appended since (see grow). A patch only
// appends after the entries it keeps or drops the newest ones, so growing
// copies the appended segment at most and the kept one never moves; a
// derivation folds both back into kept. An analyzer no patch has grown —
// every serving and survey analyzer — has no appended segment, and its slab
// is laid out and sized as one slice would be.
//
// Why not fixed-size pages: every analyzer would carry a page of slack per
// slab and a page size to tune, the ones that never grow included. Two
// segments cost a compare per access that is also the kept segment's
// bounds check (see at), and nothing on an analyzer that never grows.
type slab[T any] struct {
	kept, app []T
}

// at returns the address of element i. The unsigned compare is also the
// kept segment's bounds check, so an access there costs what indexing one
// slice does.
func (s *slab[T]) at(i int) *T {
	if uint(i) < uint(len(s.kept)) {
		return &s.kept[i]
	}
	return &s.app[i-len(s.kept)]
}

// span returns elements lo to hi, which lie in one segment: a vertex's four
// planes or two seeds, or one vertex's arc group.
func (s *slab[T]) span(lo, hi int) []T {
	if k := len(s.kept); hi > k {
		return s.app[lo-k : hi-k]
	}
	return s.kept[lo:hi]
}

// len is the element count of both segments.
func (s *slab[T]) len() int { return len(s.kept) + len(s.app) }

// clearFrom zeroes element i and every one after it.
func (s *slab[T]) clearFrom(i int) {
	k := len(s.kept)
	if i < k {
		clear(s.kept[i:])
		i = k
	}
	clear(s.app[i-k:])
}

// fold sizes the slab to n elements, all in the kept segment: a derivation.
// The kept segment is resized as one slice would be (resize), the appended
// one's elements are copied behind it and its storage is dropped.
func (s *slab[T]) fold(n int) {
	s.drop(n)
	k, app := len(s.kept), s.app
	s.kept, s.app = resize(s.kept, n), nil
	if k < n {
		copy(s.kept[k:], app)
	}
}

// grow sizes the slab to n elements without moving the kept segment: a
// patch. Entries past the kept segment go to the appended one. When that is
// outgrown it is replaced with the headroom resize gives a whole slab
// (n/8), so a slab that keeps growing is replaced as seldom as one slice
// would be, while a replacement allocates and copies only the appended
// entries and the headroom, never the kept ones. A slab with no appended
// entries that its kept storage still fits stays one segment.
func (s *slab[T]) grow(n int) {
	s.drop(n)
	switch k := len(s.kept); {
	case len(s.app) == 0 && n <= cap(s.kept):
		s.kept = s.kept[:n]
	case n <= k:
		s.kept, s.app = s.kept[:n], s.app[:0]
	case n-k <= cap(s.app):
		s.app = s.app[:n-k]
	default:
		s.app = append(make([]T, 0, n-k+n/8), s.app...)[:n-k]
	}
}

// resize folds the slab to n elements at a derivation, else grows it.
func (s *slab[T]) resize(n int, fold bool) {
	if fold {
		s.fold(n)
	} else {
		s.grow(n)
	}
}

// drop zeroes the elements past n, which a shrink to n drops, so storage
// regrown later starts clear and holds nothing of what was dropped.
func (s *slab[T]) drop(n int) {
	if n < s.len() {
		s.clearFrom(n)
	}
}

// bytes is what the slab's backing arrays occupy.
func (s *slab[T]) bytes() int { return slabBytes(s.kept) + slabBytes(s.app) }

// slabBytes is what s's backing array occupies.
func slabBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}
