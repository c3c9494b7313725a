package sta

import (
	"cmp"
	"sync"

	"newgame/internal/netlist"
	"newgame/internal/parasitics"
)

// Parasitics is one design's RC trees: a table with one entry per net,
// indexed by Net.Index(). An entry holds the net's name, the fanout it was
// routed for, its tree and, when the net carries a non-default routing rule,
// the rule and the tree re-ruled under it. One table serves every analyzer
// over the design — each scenario of a survey or of a timingd server — and
// an analyzer reads it without a lock.
//
// Trees are synthesized only by Refresh, which every full Run calls before
// its delay calculation. Analyzers over the same design may share a table
// and Run concurrently: the first Refresh routes whatever is stale, and the
// rest find nothing to write.
type Parasitics struct {
	mu   sync.Mutex
	nets []netTrees

	// The synthesis rule. gen draws every tree from one seeded stream, in
	// the order Refresh routes nets: net order. Without it a net's tree
	// depends only on (seed, net name, fanout).
	gen   *parasitics.NetGen
	stack *parasitics.Stack
	seed  int64
}

// netTrees is one net's entry.
type netTrees struct {
	name  string
	need  int // the fanout tree was routed for
	tree  *parasitics.Tree
	ndr   NDR
	ruled *parasitics.Tree // tree under ndr; nil without a rule
}

// NDR is a non-default routing rule: R, C and Cc multipliers relative to a
// default-rule route. A rule is named; the zero NDR is no rule.
type NDR struct {
	Name     string
	R, C, Cc float64
}

// NewNetBinder returns a table that synthesizes each net's tree from one
// seeded stream (fanout-driven topology from the NetGen model), drawing in
// net order. A net keeps its tree across Runs and netlist edits until its
// fanout changes (loads moved to a buffer), and nets created by an edit get
// fresh trees.
func NewNetBinder(stack *parasitics.Stack, seed int64) *Parasitics {
	return &Parasitics{gen: parasitics.NewNetGen(stack, seed)}
}

// NewKeyedNetBinder returns a table whose tree for a net depends only on
// (seed, net name, fanout), never on what else was routed before it. Two
// clones of a design, edited along different histories, get the same tree
// for the same net at the same fanout, in any process; a re-route after a
// fanout change is as deterministic as the first route.
func NewKeyedNetBinder(stack *parasitics.Stack, seed int64) *Parasitics {
	return &Parasitics{stack: stack, seed: seed}
}

// Refresh brings the table up to date with d, walking its nets in order
// under one lock: a net whose entry is missing, or was routed under another
// name or for another fanout, gets a new tree, and a net that only changed
// fanout keeps its rule. A net without sinks keeps whatever entry it had
// and reads as unrouted. When nothing is stale Refresh writes nothing, so
// every tree stays the pointer it was. It returns how many nets it routed;
// a nil table has nothing to refresh.
func (p *Parasitics) Refresh(d *netlist.Design) (routed int) {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.nets) > len(d.Nets) {
		clear(p.nets[len(d.Nets):]) // a removed net's trees go with its entry
		p.nets = p.nets[:len(d.Nets)]
	} else if len(p.nets) < len(d.Nets) {
		p.nets = append(p.nets, make([]netTrees, len(d.Nets)-len(p.nets))...)
	}
	for i, n := range d.Nets {
		e, need := &p.nets[i], n.Fanout()
		if need == 0 || e.name == n.Name && e.need == need {
			continue
		}
		if e.name != n.Name {
			*e = netTrees{name: n.Name}
		}
		e.need, e.tree = need, p.route(n.Name, need)
		e.rule()
		routed++
	}
	return routed
}

// route synthesizes a tree for need sinks under the table's rule.
func (p *Parasitics) route(name string, need int) *parasitics.Tree {
	if p.gen != nil {
		return p.gen.Net(need)
	}
	return parasitics.KeyedNet(p.stack, p.seed^int64(netKey(name, need)), need)
}

// netKey is the 64-bit FNV-1a hash (hash/fnv's New64a) of the net's name
// followed by the low two bytes of its fanout. Mixing the fanout in makes a
// re-route after load-splitting draw a fresh topology instead of a re-scaled
// copy of the old one.
func netKey(name string, need int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	h = (h ^ uint64(byte(need))) * prime64
	return (h ^ uint64(byte(need>>8))) * prime64
}

// rule re-rules the entry's tree under its NDR.
func (e *netTrees) rule() {
	e.ruled = nil
	if e.ndr.Name != "" && e.tree != nil {
		e.ruled = e.tree.ScaledCopy(e.ndr.R, e.ndr.C, e.ndr.Cc)
	}
}

// entry returns n's entry, or nil when the table holds none under n's name.
func (p *Parasitics) entry(n *netlist.Net) *netTrees {
	if i := n.Index(); p != nil && i >= 0 && i < len(p.nets) && p.nets[i].name == n.Name {
		return &p.nets[i]
	}
	return nil
}

// slot returns n's entry, starting one — unrouted, no rule — when the table
// holds none under n's name. The caller holds mu.
func (p *Parasitics) slot(n *netlist.Net) *netTrees {
	if e := p.entry(n); e != nil {
		return e
	}
	i := n.Index()
	if i >= len(p.nets) {
		p.nets = append(p.nets, make([]netTrees, i+1-len(p.nets))...)
	}
	p.nets[i] = netTrees{name: n.Name}
	return &p.nets[i]
}

// Tree returns the tree net n is timed with — re-ruled when n carries a
// rule — or nil when the table has not routed n as it now stands.
func (p *Parasitics) Tree(n *netlist.Net) *parasitics.Tree {
	if e := p.entry(n); e != nil && e.need == n.Fanout() {
		return cmp.Or(e.ruled, e.tree)
	}
	return nil
}

// Fill installs t as net n's route, for len(t.Sinks) sinks, keeping n's
// rule: how a pack's saved trees come back, and how a hand-built route is
// given to a net. A later Refresh replaces it only if n's fanout does not
// match.
func (p *Parasitics) Fill(n *netlist.Net, t *parasitics.Tree) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.slot(n)
	e.need, e.tree = len(t.Sinks), t
	e.rule()
}

// SetNDR assigns rule to net n. The re-ruled tree is made here, once per
// rule and route, so an analyzer's per-net cache keeps hitting it. It must
// not run while an analyzer of n's design does (fix passes assign rules
// between re-times).
func (p *Parasitics) SetNDR(n *netlist.Net, rule NDR) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.slot(n); e.ndr != rule || e.ruled == nil {
		e.ndr = rule
		e.rule()
	}
}

// TreeBytes is what the table holds, in bytes: its entries and its trees,
// counted from their slabs' capacities. A re-ruled tree counts only what it
// does not share with its route. A nil table holds nothing.
func (p *Parasitics) TreeBytes() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := slabBytes(p.nets)
	for _, e := range p.nets {
		if e.tree != nil {
			n += e.tree.Bytes()
		}
		if r := e.ruled; r != nil {
			n += r.Bytes() - slabBytes(r.Parent) - slabBytes(r.Layer) - slabBytes(r.Sinks)
		}
	}
	return n
}

// NDROf returns net n's rule, if it carries one.
func (p *Parasitics) NDROf(n *netlist.Net) (NDR, bool) {
	if e := p.entry(n); e != nil && e.ndr.Name != "" {
		return e.ndr, true
	}
	return NDR{}, false
}

// HasNDR reports whether net n carries a rule.
func (p *Parasitics) HasNDR(n *netlist.Net) bool {
	_, ok := p.NDROf(n)
	return ok
}
