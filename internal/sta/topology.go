package sta

import (
	"fmt"
	"sync"
	"sync/atomic"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
)

// Vertex kinds stored in Topology.kind. The kind decides which relax rule
// applies to a vertex, so the hot loops branch on one byte instead of two
// pointer tests.
const (
	vkInPin uint8 = iota
	vkOutPin
	vkInPort
	vkOutPort
)

// Topology is the frozen half of an analysis graph: CSR successor lists,
// per-vertex net fanins, longest-path levels and the clock-network marking
// — everything that depends only on the design's connectivity, the
// constraint clock roots and the library's arc *shape* (From/To pin pairs),
// never on delay tables or per-run state.
//
// Because vertex numbering is a pure function of design iteration order
// (d.Cells in order, each cell's pins in order, then d.Ports) and
// netlist.Design.Clone preserves that order exactly, one Topology is valid
// for every clone of the design it was built from. That is what lets all
// MCMM scenario analyzers and both timingd session snapshots share a single
// read-only Topology instead of each re-levelizing its own copy: pass it
// via Config.Topology and the graph derivation (New, or the Run after a
// structural edit) adopts it after a shape validation (vertex/cell/net/port
// counts, each cell's arc shape, clock-root indices, per-net connectivity).
// On any mismatch it silently builds a private topology, so an incompatible
// hint can never change results. A Topology lives only in memory: a
// restored snapshot levelizes its decoded netlist like any other boot.
//
// A buffer inserted or taken out again is patched in, not re-derived (see
// patch.go): the cells a derivation numbered come first (baseCells of
// them), then the ports, then every cell appended since, so a patch only
// appends vertices at the end or drops them there and no vertex already
// numbered moves. A patched Topology is a new value; it shares the storage
// of the one it was patched from wherever that did not change.
type Topology struct {
	numCells, numNets, numPorts int
	// baseCells is how many cells are numbered before the ports.
	baseCells int

	kind      []uint8
	cellOf    []int32 // index into d.Cells, -1 for ports
	clockPath []bool
	isCKPin   []bool

	// CSR successor lists, in exactly the order the pointer walk
	// (successorsPointerWalk) enumerates edges. For a driving vertex the
	// successor position doubles as the sink index into the net's
	// delay-calc results (loads in order, then the output port).
	succOff []int32
	succ    []int32

	// Net fanin edge per vertex (-1 = fed by cell arcs or a seed only): the
	// driving vertex and the sink's index in its net's delay results.
	faninDriver []int32
	faninSink   []int32
	netDriver   []int32 // per net index: driving vertex, -1 if undriven

	level   []int32 // per-vertex longest-path level
	nLevels int

	// waves buckets the vertices by level, built on first use: Update
	// re-times by level alone, so a patch leaves it to the next full Run.
	waves *waveIndex
	// grown is set once a patch has appended into this Topology's spare
	// capacity: only that one patch may, and any other copies.
	grown atomic.Bool

	clockRoots []int32
	// masters is each cell's master when the graph was built: the arc
	// shape an adopting analyzer's master must share (sameArcShape, plus
	// the sequential clock-pin flags isCKPin was built from), whatever
	// library or type name it comes under.
	masters []*liberty.Cell
}

// waveIndex is the level wavefronts: level l's vertices are
// verts[off[l]:off[l+1]], in vertex order. Which order a level lists its
// vertices in decides nothing: each vertex pulls from lower (forward) or
// higher (backward) levels only.
type waveIndex struct {
	once  sync.Once
	off   []int32
	verts []int32
}

// NumVerts returns the vertex count of the frozen graph.
func (t *Topology) NumVerts() int { return len(t.kind) }

// numLevels returns the number of level wavefronts.
func (t *Topology) numLevels() int { return t.nLevels }

// levelRange returns level l's vertices.
func (t *Topology) levelRange(l int) []int32 {
	w := t.wavefronts()
	return w.verts[w.off[l]:w.off[l+1]]
}

// wavefronts returns the level buckets, counting-sorting the levels the
// first time any analyzer sharing t asks.
func (t *Topology) wavefronts() *waveIndex {
	w := t.waves
	w.once.Do(func() {
		w.off = make([]int32, t.nLevels+1)
		for _, l := range t.level {
			w.off[l+1]++
		}
		for l := 0; l < t.nLevels; l++ {
			w.off[l+1] += w.off[l]
		}
		w.verts = make([]int32, len(t.level))
		place := append([]int32(nil), w.off[:t.nLevels]...)
		for i, l := range t.level {
			w.verts[place[l]] = int32(i)
			place[l]++
		}
	})
	return w
}

// sameArcShape reports whether two masters have the same arc (From, To)
// sequence and the same check binding — the condition under which an
// in-place master swap can reuse the prebuilt arc groups, the CSR successor
// lists and the cell's row of the check-site table.
func sameArcShape(m1, m2 *liberty.Cell) bool {
	if len(m1.Arcs) != len(m2.Arcs) || bindingOf(m1) != bindingOf(m2) {
		return false
	}
	for k := range m1.Arcs {
		if m1.Arcs[k].From != m2.Arcs[k].From || m1.Arcs[k].To != m2.Arcs[k].To {
			return false
		}
	}
	return true
}

// seqClockPin reports whether p is a sequential clock pin under master m.
// Only those terminate clock-network marking and receive useful-skew
// offsets; a clock-gating cell's CK pin is a through-point (the gated clock
// continues to the FFs).
func seqClockPin(m *liberty.Cell, p *netlist.Pin) bool {
	mp := m.Pin(p.Name)
	return m.FF != nil && mp != nil && mp.IsClock
}

// clockRootIndices collects the constraint clock roots as vertex indices,
// in Clocks/Roots declaration order (the DFS seed order markClockPaths
// uses).
func (a *Analyzer) clockRootIndices() []int32 {
	if a.Cons == nil {
		return nil
	}
	var roots []int32
	for _, ck := range a.Cons.Clocks {
		for _, r := range ck.Roots {
			if i := a.portVertex(r); i >= 0 {
				roots = append(roots, int32(i))
			}
		}
	}
	return roots
}

// compatible reports whether t can serve analyzer a unchanged: same vertex
// universe, same per-vertex kinds, same clock roots, and every cell's
// master arc-shape-equal to the one t was built with. Connectivity equality
// beyond the counts is the caller's contract (same design or a Clone of
// it); everything a different library, constraint set or same-shape retype
// could break is checked. a must be numbered as t is (a.baseCells ==
// t.baseCells).
func (t *Topology) compatible(a *Analyzer) bool {
	if t.NumVerts() != a.NumVerts() ||
		t.numCells != len(a.D.Cells) ||
		t.numNets != len(a.D.Nets) ||
		t.numPorts != len(a.D.Ports) ||
		t.baseCells != a.baseCells {
		return false
	}
	for k, q := range a.ports {
		if i := int(a.portBase) + k; t.kind[i] != kindOf(nil, q) || t.cellOf[i] != -1 {
			return false
		}
	}
	for ci, c := range a.cells {
		m, built := a.masters[ci], t.masters[ci]
		if m != built && !sameArcShape(built, m) {
			return false
		}
		for k, p := range c.Pins {
			i := int(a.cellBase[ci]) + k
			if t.kind[i] != kindOf(p, nil) || t.cellOf[i] != int32(ci) ||
				m != built && m.FF != nil && t.isCKPin[i] != seqClockPin(m, p) {
				return false
			}
		}
	}
	roots := a.clockRootIndices()
	if len(roots) != len(t.clockRoots) {
		return false
	}
	for i := range roots {
		if roots[i] != t.clockRoots[i] {
			return false
		}
	}
	// Net connectivity: every net's driver and sink assignments must match
	// the frozen fanin arrays. The caller's contract (same design or a
	// Clone) makes this a formality, but it turns a violated contract into
	// a silently-correct private rebuild instead of wrong timing.
	for ni, nl := range a.D.Nets {
		di := a.netDriverVertex(nl)
		if t.netDriver[ni] != int32(di) {
			return false
		}
		if di < 0 {
			continue
		}
		if int(t.succOff[di+1]-t.succOff[di]) != nl.Fanout() {
			return false
		}
		for si, l := range nl.Loads {
			li := a.pinVertex(l)
			if li < 0 || t.faninDriver[li] != int32(di) || t.faninSink[li] != int32(si) {
				return false
			}
		}
	}
	return true
}

// kindOf classifies a vertex from its netlist object, exactly one of p and
// q being non-nil.
func kindOf(p *netlist.Pin, q *netlist.Port) uint8 {
	switch {
	case p != nil && p.Dir == netlist.Input:
		return vkInPin
	case p != nil:
		return vkOutPin
	case q.Dir == netlist.Input:
		return vkInPort
	default:
		return vkOutPort
	}
}

// buildTopologyCSR freezes the pointer-linked graph into a Topology under
// the analyzer's numbering: one pointer walk per vertex to lay out the CSR,
// then Kahn levelization, clock marking and longest-path levels over the
// int32 arrays — the same enumeration orders the per-vertex walk produced,
// so levels are identical to the pre-SoA implementation. The Topology is
// always a new value (it may be shared); the fill cursors, in-degrees and
// Kahn queue live in the writer's scratch, 2n int32s reused across
// derivations. Each call counts in sta.topologies_built.
func (a *Analyzer) buildTopologyCSR() (*Topology, error) {
	a.obsTopoBuilt.Add(1)
	n := a.NumVerts()
	a.topoScratch = resize(a.topoScratch, 2*n)
	scratch := a.topoScratch
	t := &Topology{
		numCells:  len(a.D.Cells),
		numNets:   len(a.D.Nets),
		numPorts:  len(a.D.Ports),
		baseCells: a.baseCells,
		kind:      make([]uint8, n),
		cellOf:    make([]int32, n),
		isCKPin:   make([]bool, n),
		masters:   append([]*liberty.Cell(nil), a.masters...),
		waves:     new(waveIndex),
	}
	for ci, c := range a.cells {
		for k, p := range c.Pins {
			i := int(a.cellBase[ci]) + k
			t.kind[i], t.cellOf[i] = kindOf(p, nil), int32(ci)
			t.isCKPin[i] = seqClockPin(a.masters[ci], p)
		}
	}
	for k, q := range a.ports {
		i := int(a.portBase) + k
		t.kind[i], t.cellOf[i] = kindOf(nil, q), -1
	}
	// CSR successors: count, prefix-sum, fill — in pointer-walk order.
	t.succOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		a.successorsPointerWalk(t.cellOf, i, func(int) { t.succOff[i+1]++ })
	}
	for i := 0; i < n; i++ {
		t.succOff[i+1] += t.succOff[i]
	}
	t.succ = make([]int32, t.succOff[n])
	fill := scratch[:n]
	copy(fill, t.succOff[:n])
	for i := 0; i < n; i++ {
		a.successorsPointerWalk(t.cellOf, i, func(j int) {
			t.succ[fill[i]] = int32(j)
			fill[i]++
		})
	}
	// Net fanin edges.
	t.faninDriver = make([]int32, n)
	t.faninSink = make([]int32, n)
	for i := range t.faninDriver {
		t.faninDriver[i] = -1
	}
	t.netDriver = make([]int32, len(a.D.Nets))
	for ni, nl := range a.D.Nets {
		di := a.netDriverVertex(nl)
		t.netDriver[ni] = int32(di)
		if di >= 0 {
			a.setNetFanins(t, nl, int32(di))
		}
	}
	order, err := t.levelize(a, scratch)
	if err != nil {
		return nil, err
	}
	t.markClockPaths(a)
	// Longest-path levels, in topological order.
	t.level = make([]int32, n)
	for _, i := range order {
		li := t.level[i] + 1
		for _, j := range t.succ[t.succOff[i]:t.succOff[i+1]] {
			if li > t.level[j] {
				t.level[j] = li
			}
		}
	}
	for _, l := range t.level {
		t.nLevels = max(t.nLevels, int(l)+1)
	}
	t.wavefronts()
	return t, nil
}

// setNetFanins records net nl's sinks, driven by vertex di, in t's fanin
// arrays: each load at its position in the net, then the output port.
func (a *Analyzer) setNetFanins(t *Topology, nl *netlist.Net, di int32) {
	for si, l := range nl.Loads {
		li := a.pinVertex(l)
		t.faninDriver[li], t.faninSink[li] = di, int32(si)
	}
	if p := nl.Port; p != nil && p.Dir == netlist.Output {
		pi := a.portVertex(p)
		t.faninDriver[pi], t.faninSink[pi] = di, int32(len(nl.Loads))
	}
}

// levelize computes a topological order via Kahn's algorithm; a leftover
// vertex means a combinational cycle. scratch (2n long) holds the in-degrees
// and the queue, which sees every vertex once and is the order returned.
func (t *Topology) levelize(a *Analyzer, scratch []int32) ([]int32, error) {
	n := t.NumVerts()
	indeg, queue := scratch[:n], scratch[n:n:2*n]
	clear(indeg)
	for _, j := range t.succ {
		indeg[j]++
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		for _, j := range t.succ[t.succOff[i]:t.succOff[i+1]] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(queue) != n {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("sta: combinational cycle through %s", vertexName(a.vertex(t.cellOf, i)))
			}
		}
	}
	return queue, nil
}

// markClockPaths flags vertices reachable from clock roots without passing
// through a flip-flop's CK pin (the clock network proper plus the CK pins
// themselves).
func (t *Topology) markClockPaths(a *Analyzer) {
	t.clockPath = make([]bool, t.NumVerts())
	t.clockRoots = a.clockRootIndices()
	stack := append([]int32(nil), t.clockRoots...)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.clockPath[i] {
			continue
		}
		t.clockPath[i] = true
		if t.isCKPin[i] {
			continue // stop at sequential clock pins; Q launch is data
		}
		stack = append(stack, t.succ[t.succOff[i]:t.succOff[i+1]]...)
	}
}
