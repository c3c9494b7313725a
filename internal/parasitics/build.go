package parasitics

import (
	"math/rand"

	"newgame/internal/units"
)

// segmentsPerWire controls distributed-RC fidelity: each wire is chopped
// into this many RC sections so moment metrics see a distributed line.
const segmentsPerWire = 4

// addWire appends a chopped wire of the given length/layer from node,
// returning the far-end node.
func addWire(t *Tree, from int, st *Stack, layer int, length units.Um, ccFrac float64) int {
	r, c := st.WireRC(layer, length/segmentsPerWire)
	cc := c * ccFrac
	cg := c - cc
	node := from
	for i := 0; i < segmentsPerWire; i++ {
		node = t.AddNode(node, r, cg, cc, layer)
	}
	return node
}

// PointToPoint builds a single-sink net: length µm of wire on layer, with
// ccFrac of the wire cap appearing as coupling. The sink pin cap is added
// by the caller (binder) at the sink node.
func PointToPoint(st *Stack, layer int, length units.Um, ccFrac float64) *Tree {
	t := NewTree()
	end := addWire(t, 0, st, layer, length, ccFrac)
	t.MarkSink(end)
	return t
}

// Trunk builds a trunk-with-taps net: a main trunk of trunkLen µm on
// trunkLayer with nSinks taps of tapLen µm on tapLayer spaced evenly along
// it. This is the generic signal-net topology the binder uses.
func Trunk(st *Stack, trunkLayer, tapLayer int, trunkLen, tapLen units.Um, nSinks int, ccFrac float64) *Tree {
	t := NewTree()
	if nSinks < 1 {
		nSinks = 1
	}
	seg := trunkLen / float64(nSinks)
	at := 0
	for i := 0; i < nSinks; i++ {
		at = addWire(t, at, st, trunkLayer, seg, ccFrac)
		tap := addWire(t, at, st, tapLayer, tapLen, ccFrac)
		t.MarkSink(tap)
	}
	return t
}

// NetGen deterministically synthesizes net parasitics for a design when no
// placement-driven extraction exists: wire length grows with fanout
// (Rent-style), layers are assigned short-net-low / long-net-high.
type NetGen struct {
	Stack *Stack
	Rng   *rand.Rand
	// UnitLen is the average per-fanout wirelength, µm.
	UnitLen units.Um
	// CcFrac is the coupling fraction of wire cap.
	CcFrac float64
}

// NewNetGen returns a generator with node-appropriate defaults.
func NewNetGen(st *Stack, seed int64) *NetGen {
	return &NetGen{Stack: st, Rng: rand.New(rand.NewSource(seed)), UnitLen: 6, CcFrac: 0.45}
}

// Net synthesizes parasitics for a net with the given fanout. Longer nets
// route on higher (less resistive) layers, as a router would.
func (g *NetGen) Net(fanout int) *Tree {
	if fanout < 1 {
		fanout = 1
	}
	// Lognormal-ish length: most nets short, a tail of long ones.
	base := g.UnitLen * (0.5 + g.Rng.Float64()) * (1 + 0.6*float64(fanout-1))
	layer := 0
	switch {
	case base > 12*g.UnitLen:
		layer = min(4, len(g.Stack.Layers)-1)
	case base > 5*g.UnitLen:
		layer = min(3, len(g.Stack.Layers)-1)
	case base > 2*g.UnitLen:
		layer = min(2, len(g.Stack.Layers)-1)
	default:
		layer = 1
	}
	tapLayer := 0
	if fanout == 1 {
		return PointToPoint(g.Stack, layer, base, g.CcFrac)
	}
	return Trunk(g.Stack, layer, tapLayer, base, 1.5, fanout, g.CcFrac)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
