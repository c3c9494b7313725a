package sta_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/conformance"
	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/opt"
	"newgame/internal/pack"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
)

// The two synthesis rules as they were before sta.Parasitics: closures over
// pointer-keyed caches, kept verbatim as the oracles the table is held to.

func refNetBinder(stack *parasitics.Stack, seed int64) func(*netlist.Net) *parasitics.Tree {
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

type refSavedTree struct {
	Need int
	Tree *parasitics.Tree
}

func refSnapshotNetBinder(stack *parasitics.Stack, seed int64, saved map[string]refSavedTree) func(*netlist.Net) *parasitics.Tree {
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
		t := refKeyedTree(stack, seed, n.Name, need)
		cache[n] = entry{need: need, tree: t}
		return t
	}
}

func refKeyedTree(stack *parasitics.Stack, seed int64, name string, need int) *parasitics.Tree {
	h := fnv.New64a()
	h.Write([]byte(name))
	// Mix the fanout into the key so a re-route after load-splitting
	// draws a fresh topology instead of a re-scaled copy of the old one.
	h.Write([]byte{byte(need), byte(need >> 8)})
	return parasitics.NewNetGen(stack, seed^int64(h.Sum64())).Net(need)
}

// tableCase is one table under test beside its oracle. The oracle is asked
// for every net in net order once per step — what every Run did before the
// table — and a rule re-scales its answer.
type tableCase struct {
	name   string
	d      *netlist.Design
	table  *sta.Parasitics
	oracle func(*netlist.Net) *parasitics.Tree
	rules  map[*netlist.Net]sta.NDR
	last   []*parasitics.Tree
}

// check refreshes the table and holds every net's tree to the oracle's, by
// value; when stable, nothing changed since the last check and every tree
// must also be the pointer it was.
func (c *tableCase) check(t *testing.T, step string, stable bool) {
	t.Helper()
	c.table.Refresh(c.d)
	got := make([]*parasitics.Tree, len(c.d.Nets))
	for i, n := range c.d.Nets {
		want := c.oracle(n)
		if r, ok := c.rules[n]; ok && want != nil {
			want = want.ScaledCopy(r.R, r.C, r.Cc)
		}
		if got[i] = c.table.Tree(n); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s, %s: net %s (fanout %d) has another tree than the oracle's", c.name, step, n.Name, n.Fanout())
		}
	}
	if stable && !slices.Equal(got, c.last) {
		t.Fatalf("%s, %s: a refresh that changed nothing replaced a tree", c.name, step)
	}
	c.last = got
}

// Both synthesis rules, under seeded scripts of retypes, buffer inserts, a
// rule on a routed net, a buffer taken out and put back, and a pack round
// trip, give every net the tree the pre-table closures gave it — and a
// refresh that has nothing to do leaves every tree where it was.
func TestParasiticsMatchOracles(t *testing.T) {
	lib := conformance.Lib()
	stack := parasitics.Stack16()
	for seed := int64(1); seed <= 4; seed++ {
		d := circuits.Block(lib, circuits.BlockSpec{
			Name: "pt", Inputs: 8, Outputs: 8, FFs: 16, Gates: 200,
			MaxDepth: 8, Seed: seed, ClockBufferLevels: 2,
		})
		rng := rand.New(rand.NewSource(seed))
		cases := []*tableCase{
			{name: "net order", d: d, table: sta.NewNetBinder(stack, seed), oracle: refNetBinder(stack, seed)},
			{name: "keyed", d: d, table: sta.NewKeyedNetBinder(stack, seed), oracle: refSnapshotNetBinder(stack, seed, nil)},
		}
		checkAll := func(step string, stable bool) {
			t.Helper()
			for _, c := range cases {
				c.check(t, fmt.Sprintf("seed %d, %s", seed, step), stable)
			}
		}
		checkAll("first route", false)
		checkAll("nothing changed", true)
		retype(rng, lib, d, 12)
		checkAll("retypes", true)

		var bufs []*conformance.BufferEdit
		mark := d.NameMark()
		first := drivenNet(rng, d, 3)
		firstMoved := append([]*netlist.Pin(nil), first.Loads[:2]...)
		for n := first; len(bufs) < 3; n = drivenNet(rng, d, 3) {
			bufs = append(bufs, insertBuffer(t, d, n, n.Loads[:2]))
			checkAll("buffer insert", false)
		}

		// The rule goes on a net the buffer removal below re-routes.
		for _, c := range cases {
			c.rules = map[*netlist.Net]sta.NDR{first: opt.WideSpaced}
			c.table.SetNDR(first, opt.WideSpaced)
		}
		checkAll("rule on a routed net", false)
		checkAll("rule, nothing changed", true)

		// Out in reverse order, names rewound, then the first one back in.
		for i := len(bufs) - 1; i >= 0; i-- {
			bufs[i].Undo(d)
		}
		d.RewindNames(mark)
		checkAll("buffers removed", false)
		insertBuffer(t, d, first, firstMoved)
		checkAll("buffer re-inserted", false)

		// The pack saves the trees the net-order table times each net with;
		// the decoded keyed table must then re-route an edit the way the
		// pre-table snapshot binder did over the same saved trees.
		snap := &pack.Snapshot{
			Design: d, Stack: stack, Seed: seed, Parasitics: cases[0].table,
			Recipe: &core.Recipe{Name: "pt", Scenarios: []core.Scenario{{Name: "s", Lib: lib, PeriodScale: 1, ForSetup: true}}},
		}
		data, err := pack.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := pack.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		saved := map[string]refSavedTree{}
		for _, n := range d.Nets {
			if tr := cases[0].table.Tree(n); tr != nil {
				saved[n.Name] = refSavedTree{Need: len(tr.Sinks), Tree: tr}
			}
		}
		restored := &tableCase{name: "decoded", d: dec.Design, table: dec.Parasitics, oracle: refSnapshotNetBinder(stack, seed, saved)}
		restored.check(t, fmt.Sprintf("seed %d, decoded", seed), false)
		restored.check(t, fmt.Sprintf("seed %d, decoded, nothing changed", seed), true)
		n := drivenNet(rng, dec.Design, 3)
		insertBuffer(t, dec.Design, n, n.Loads[:2])
		restored.check(t, fmt.Sprintf("seed %d, decoded, buffer insert", seed), false)
	}
}
