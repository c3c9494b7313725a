// Package parasitics models interconnect: RC trees with per-layer segment
// tagging, moment-based delay and slew metrics (Elmore, D2M), a BEOL metal
// stack with conventional and tightened corners, and the SADP/SAQP
// CD-variation statistics of the paper's Figure 5.
package parasitics

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"newgame/internal/units"
)

// Tree is a grounded RC tree for one net. Node 0 is the root (the driver
// output pin); every other node hangs off its parent through a resistive
// segment. Sink pins are tree nodes flagged in Sinks, ordered to match the
// net's load-pin order.
//
// Base R/C values are stored unscaled; analyses pass a Scaling (per-layer
// multipliers) so one extraction serves every BEOL corner and Monte Carlo
// sample without rebuilding. A node costs 29 bytes: three float64 values, a
// 4-byte parent and a 1-byte layer. Parent, Layer and Sinks are never
// written once a tree is built, so copies share them (ScaledCopy).
type Tree struct {
	// Parent[i] is the parent node of i; Parent[0] is -1.
	Parent []int32
	// R[i] is the base resistance (kΩ) of the segment from Parent[i] to i.
	R []float64
	// C[i] is the base grounded wire capacitance (fF) at node i. Pin caps
	// are not in the tree: the moment kernel takes the receivers' caps as
	// virtual children of the sink nodes (Scratch.Moments).
	C []float64
	// Cc[i] is the base coupling capacitance (fF) at node i to neighbor
	// wires. For delay it is grounded with a Miller factor; SI analysis
	// scales it further.
	Cc []float64
	// Layer[i] is the metal layer of the segment into node i, or -1 for
	// virtual (pin/via-only) nodes. Layer indices refer to a Stack.
	Layer []int8
	// Sinks holds node indices of load pins in net load order.
	Sinks []int32
}

// NewTree returns a tree containing only the root node, with room for
// nodes nodes and sinks sinks: a builder that knows its size up front
// allocates each slab once, at its final length.
func NewTree(nodes, sinks int) *Tree {
	nodes = max(nodes, 1)
	t := &Tree{
		Parent: make([]int32, 1, nodes),
		R:      make([]float64, 1, nodes),
		C:      make([]float64, 1, nodes),
		Cc:     make([]float64, 1, nodes),
		Layer:  make([]int8, 1, nodes),
		Sinks:  make([]int32, 0, sinks),
	}
	t.Parent[0], t.Layer[0] = -1, -1
	return t
}

// AddNode appends a node under parent with the given segment resistance,
// grounded cap, coupling cap, and layer. It returns the new node index.
func (t *Tree) AddNode(parent int, r, c, cc float64, layer int) int {
	t.Parent = append(t.Parent, int32(parent))
	t.R = append(t.R, r)
	t.C = append(t.C, c)
	t.Cc = append(t.Cc, cc)
	t.Layer = append(t.Layer, int8(layer))
	return len(t.Parent) - 1
}

// MarkSink flags node as a sink pin (appended in net load order).
func (t *Tree) MarkSink(node int) { t.Sinks = append(t.Sinks, int32(node)) }

// N returns the node count.
func (t *Tree) N() int { return len(t.Parent) }

// Bytes is what the tree occupies: its header and its slabs, counted from
// their capacities.
func (t *Tree) Bytes() int {
	return int(unsafe.Sizeof(*t)) + 4*cap(t.Parent) + 8*(cap(t.R)+cap(t.C)+cap(t.Cc)) + cap(t.Layer) + 4*cap(t.Sinks)
}

// Scaling carries per-layer multipliers for R, grounded C, and coupling C.
// Index -1 (virtual nodes) is implicitly 1.0. A nil *Scaling means nominal.
type Scaling struct {
	R, C, Cc []float64
}

// Uniform returns a scaling applying the same factors to every layer of an
// nLayers stack.
func Uniform(nLayers int, r, c, cc float64) *Scaling {
	s := &Scaling{R: make([]float64, nLayers), C: make([]float64, nLayers), Cc: make([]float64, nLayers)}
	for i := 0; i < nLayers; i++ {
		s.R[i], s.C[i], s.Cc[i] = r, c, cc
	}
	return s
}

func (s *Scaling) rAt(layer int8) float64 {
	if s == nil || layer < 0 || int(layer) >= len(s.R) {
		return 1
	}
	return s.R[layer]
}

func (s *Scaling) cAt(layer int8) float64 {
	if s == nil || layer < 0 || int(layer) >= len(s.C) {
		return 1
	}
	return s.C[layer]
}

func (s *Scaling) ccAt(layer int8) float64 {
	if s == nil || layer < 0 || int(layer) >= len(s.Cc) {
		return 1
	}
	return s.Cc[layer]
}

// MillerFactor is the coupling-to-ground conversion used for nominal delay:
// couples count once. SI analysis perturbs this (see internal/sta).
const MillerFactor = 1.0

// nodeCap returns the effective grounded cap of node i under scaling,
// including Miller-grounded coupling.
func (t *Tree) nodeCap(i int, s *Scaling, miller float64) float64 {
	l := t.Layer[i]
	return t.C[i]*s.cAt(l) + t.Cc[i]*s.ccAt(l)*miller
}

// Elmore returns the Elmore delay (ps) from root to every sink, in sink
// order.
func (t *Tree) Elmore(s *Scaling) []units.Ps {
	return t.ElmoreM(s, MillerFactor)
}

// ElmoreM is Elmore with an explicit Miller factor on coupling caps — SI
// analysis uses 2 (opposing aggressor) for late and 0 (assisting) for early.
func (t *Tree) ElmoreM(s *Scaling, miller float64) []units.Ps {
	var sc Scratch
	sc.bind(t, nil, s)
	sc.pass(miller, 1)
	return sc.atSinks(nil, sc.m1)
}

// TotalCapM returns the total capacitance seen by the driver under scaling,
// coupling counted with the given Miller factor — the lumped load for
// max-cap DRC checks and first-order delay.
func (t *Tree) TotalCapM(s *Scaling, miller float64) units.FF {
	sum := 0.0
	for i := 0; i < t.N(); i++ {
		sum += t.nodeCap(i, s, miller)
	}
	return sum
}

// TotalCoupling returns the total coupling capacitance on the net under
// scaling (the SI exposure of the net).
func (t *Tree) TotalCoupling(s *Scaling) units.FF {
	sum := 0.0
	for i := 0; i < t.N(); i++ {
		sum += t.Cc[i] * s.ccAt(t.Layer[i])
	}
	return sum
}

// DelayD2M returns the D2M delay metric m1²/√m2 · ln2 per sink — a standard
// two-moment metric that corrects Elmore's pessimism on far sinks while
// remaining an upper-bound-style estimate on near ones.
func (t *Tree) DelayD2M(s *Scaling) []units.Ps {
	return t.sinkMetric(s, D2M)
}

// SlewDegradation returns the wire-induced slew component per sink: the
// spread of the impulse response, √(2·m2 − m1²), scaled to a 10–90 ramp.
// Receivers combine it with the driver slew in RMS fashion (PERI model).
func (t *Tree) SlewDegradation(s *Scaling) []units.Ps {
	return t.sinkMetric(s, WireSlew)
}

// sinkMetric evaluates a two-moment metric at every sink under nominal
// Miller coupling.
func (t *Tree) sinkMetric(s *Scaling, metric func(m1, m2 float64) units.Ps) []units.Ps {
	var sc Scratch
	sc.bind(t, nil, s)
	sc.pass(MillerFactor, 2)
	out := make([]float64, len(t.Sinks))
	for i, sink := range t.Sinks {
		out[i] = metric(sc.m1[sink], sc.m2[sink])
	}
	return out
}

// D2M is the two-moment delay metric ln2 · m1²/√m2 of one sink.
func D2M(m1, m2 float64) units.Ps {
	if m2 <= 0 {
		return 0
	}
	return math.Ln2 * m1 * m1 / math.Sqrt(m2)
}

// WireSlew is the 10–90 wire slew component 2.2 · √(2·m2 − m1²) of one sink.
func WireSlew(m1, m2 float64) units.Ps {
	v := 2*m2 - m1*m1
	if v < 0 {
		v = 0
	}
	return 2.2 * math.Sqrt(v)
}

// Validate checks structural invariants.
func (t *Tree) Validate() error {
	n := t.N()
	if n == 0 || t.Parent[0] != -1 {
		return fmt.Errorf("parasitics: malformed root")
	}
	if len(t.R) != n || len(t.C) != n || len(t.Cc) != n || len(t.Layer) != n {
		return fmt.Errorf("parasitics: inconsistent array lengths")
	}
	for i := 1; i < n; i++ {
		if t.Parent[i] < 0 || int(t.Parent[i]) >= i {
			return fmt.Errorf("parasitics: node %d parent %d not topologically earlier", i, t.Parent[i])
		}
		if t.R[i] < 0 || t.C[i] < 0 || t.Cc[i] < 0 {
			return fmt.Errorf("parasitics: negative R/C at node %d", i)
		}
	}
	for _, s := range t.Sinks {
		if s <= 0 || int(s) >= n {
			return fmt.Errorf("parasitics: sink %d out of range", s)
		}
	}
	return nil
}

// ScaledCopy returns a copy of the tree with all segment R, grounded C, and
// coupling C multiplied by the given factors — the effect of re-routing a
// net under a non-default rule (wider wire: lower R; extra spacing: lower
// coupling; some ground-cap increase). The copy shares t's Parent, Layer
// and Sinks, clipped so that growing either tree never writes into the
// other's.
func (t *Tree) ScaledCopy(r, c, cc float64) *Tree {
	cp := &Tree{
		Parent: slices.Clip(t.Parent),
		R:      make([]float64, len(t.R)),
		C:      make([]float64, len(t.C)),
		Cc:     make([]float64, len(t.Cc)),
		Layer:  slices.Clip(t.Layer),
		Sinks:  slices.Clip(t.Sinks),
	}
	for i := range t.R {
		cp.R[i] = t.R[i] * r
		cp.C[i] = t.C[i] * c
		cp.Cc[i] = t.Cc[i] * cc
	}
	return cp
}
