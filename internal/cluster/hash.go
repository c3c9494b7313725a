package cluster

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over member IDs with virtual nodes.
// Scenario names hash onto the ring; Owners walks clockwise collecting
// distinct members, so losing a worker only remaps the scenarios it
// owned and adding one back restores the original placement — the
// property that makes rebalancing after an eviction cheap and
// deterministic across coordinator restarts (no RNG anywhere).
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// fnv1a is FNV-1a 64 — tiny, allocation-free and stable across runs,
// which is all a placement hash needs.
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// buildRing places vnodes points per member. Members may be in any
// order; the ring is identical for identical member sets.
func buildRing(members []string, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   fnv1a(fmt.Sprintf("%s#%d", m, v)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owners returns up to n distinct members clockwise from key's hash —
// the preference order for serving key. Fewer than n members on the
// ring returns them all.
func (r *ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := fnv1a(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			owners = append(owners, p.member)
		}
	}
	return owners
}
