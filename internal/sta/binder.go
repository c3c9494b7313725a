package sta

import (
	"hash/fnv"
	"sync"

	"newgame/internal/netlist"
	"newgame/internal/parasitics"
)

// NewNetBinder returns a Parasitics callback that synthesizes and caches an
// RC tree per net (fanout-driven topology from the NetGen model). The cache
// keeps trees stable across repeated Run calls and across netlist edits:
// optimization changing a driver does not re-roll its wires, while newly
// created nets (buffer insertions) get fresh short trees.
//
// The binder is safe for concurrent use by analyzers running in parallel
// (one per MCMM scenario). Tree *generation* order still determines which
// tree a net gets — the generator draws from one seeded stream — so
// callers that need run-to-run determinism warm the cache serially in net
// order before fanning out; a Run's own parallel delay calc does this
// automatically.
func NewNetBinder(stack *parasitics.Stack, seed int64) func(*netlist.Net) *parasitics.Tree {
	gen := parasitics.NewNetGen(stack, seed)
	cache := map[*netlist.Net]*parasitics.Tree{}
	var mu sync.Mutex
	return func(n *netlist.Net) *parasitics.Tree {
		mu.Lock()
		defer mu.Unlock()
		need := n.Fanout()
		// Fanout may have changed (loads moved to a buffer): re-route only
		// when the sink count no longer matches.
		if t, ok := cache[n]; ok && len(t.Sinks) == need {
			return t
		}
		if need == 0 {
			return nil
		}
		t := gen.Net(need)
		cache[n] = t
		return t
	}
}

// NewKeyedNetBinder returns a Parasitics callback whose synthesized tree
// for a net depends only on (seed, net name, sink count) — never on the
// order nets are first touched. NewNetBinder draws from one sequential
// stream, so two analyzers whose query histories differ can assign
// different trees to the same net; a resident signoff service keeping
// multiple epoch snapshots of one design (a read session and an ECO shadow)
// needs both snapshots to see bit-identical parasitics regardless of what
// each has computed so far. Keying the generator per net delivers that:
// clones of a design get the same tree for the same net name at the same
// fanout, on any call order, in any process.
//
// Like NewNetBinder, trees are cached per net and re-routed only when the
// sink count changes (loads moved to a buffer); unlike it, the re-route is
// also deterministic — the replacement tree depends on the new sink count,
// not on how many nets were generated in between.
func NewKeyedNetBinder(stack *parasitics.Stack, seed int64) func(*netlist.Net) *parasitics.Tree {
	return NewSnapshotNetBinder(stack, seed, nil)
}

// SavedTree pairs a previously synthesized RC tree with the sink count it
// was routed for, keyed by net name in a snapshot binder.
type SavedTree struct {
	Need int
	Tree *parasitics.Tree
}

// NewSnapshotNetBinder is NewKeyedNetBinder seeded with trees decoded from
// a state snapshot: a net whose name and sink count match a saved entry is
// served the saved tree verbatim; everything else (new nets from later
// ECOs, re-routes after load splitting) falls back to keyed synthesis.
// Because the keyed generator is a pure function of (seed, name, fanout),
// the saved trees are exactly what synthesis would produce — the snapshot
// only skips the generation cost — so a restored server and a live one
// stay bit-identical. saved may be shared across binders; it is read-only.
func NewSnapshotNetBinder(stack *parasitics.Stack, seed int64, saved map[string]SavedTree) func(*netlist.Net) *parasitics.Tree {
	type entry struct {
		need int
		tree *parasitics.Tree
	}
	cache := map[*netlist.Net]entry{}
	var mu sync.Mutex
	return func(n *netlist.Net) *parasitics.Tree {
		mu.Lock()
		defer mu.Unlock()
		need := n.Fanout()
		if e, ok := cache[n]; ok && e.need == need {
			return e.tree
		}
		if need == 0 {
			return nil
		}
		if s, ok := saved[n.Name]; ok && s.Need == need && len(s.Tree.Sinks) == need {
			cache[n] = entry{need: need, tree: s.Tree}
			return s.Tree
		}
		t := keyedTree(stack, seed, n.Name, need)
		cache[n] = entry{need: need, tree: t}
		return t
	}
}

// keyedTree synthesizes the deterministic tree for (seed, name, need).
func keyedTree(stack *parasitics.Stack, seed int64, name string, need int) *parasitics.Tree {
	h := fnv.New64a()
	h.Write([]byte(name))
	// Mix the fanout into the key so a re-route after load-splitting
	// draws a fresh topology instead of a re-scaled copy of the old one.
	h.Write([]byte{byte(need), byte(need >> 8)})
	return parasitics.NewNetGen(stack, seed^int64(h.Sum64())).Net(need)
}
