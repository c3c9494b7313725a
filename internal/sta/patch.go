package sta

import (
	"slices"

	"newgame/internal/netlist"
)

// Patching the graph. A buffer inserted (netlist.Design.InsertBuffer) or
// the newest one taken out again (RemoveBuffer) is journaled by the design
// (netlist.Design.Journal); an analyzer whose graph the journal carries to
// the design's current revision patches it instead of deriving it afresh.
// The cells the last derivation numbered keep their vertices, the ports keep
// theirs behind them, and every cell appended since is numbered after the
// ports (see number), so a patch only appends vertices or drops the newest
// ones and no vertex number in the planes, the dirty lists or the check-site
// table moves. What the patch reads is the journal's list of split nets and
// the design as it stands: the split nets' drivers get new successor rows,
// their loads and the new nets' loads new fanins, the new cells their
// vertices, and levels are repaired over the forward cone of what changed.
// Anything else — a direct Connect, a removal that is not of the newest cell
// or reaches a cell the derivation numbered, a new cell that checks timing,
// a retype to another arc shape — is derived afresh, as before.

// patch brings the graph current with the design by replaying the journal,
// on the analyzer's own tables and a new Topology — or Config.Topology,
// when that already describes the result. It reports false, having changed nothing,
// when the journal does not carry the graph to the current revision or the
// edits are not a patch's to make; the caller then derives the graph
// afresh.
//
// incremental is Update's mode: the analyzer stays timed, the net cache is
// rebound and the split nets, the new nets, the buffers and every cell whose
// master moved since are marked dirty for the cone re-time. Run's mode
// leaves all of that to the Run.
func (a *Analyzer) patch(incremental bool) bool {
	t, d := a.topo, a.D
	if t == nil || len(d.Ports) != len(a.ports) || incremental && a.nets.len() != t.numNets {
		return false
	}
	edits, ok := d.Journal(a.revision)
	if !ok || len(edits) == 0 {
		return false
	}
	// The cells and nets every edit left standing, and the split nets.
	keptCells, keptNets := min(len(a.cells), len(d.Cells)), min(t.numNets, len(d.Nets))
	for _, e := range edits {
		if e.Removed {
			keptCells, keptNets = min(keptCells, e.Cells), min(keptNets, e.Nets)
		}
	}
	if keptCells < a.baseCells || keptCells > 0 && a.cells[keptCells-1] != d.Cells[keptCells-1] {
		return false
	}
	for ci, c := range d.Cells {
		m := a.resolveMaster(c)
		switch {
		case m == nil:
			return false // the derivation reports it
		case ci >= keptCells:
			if m.FF != nil || bindingOf(m) != (checkBinding{}) {
				return false // a new check site: the site table is derived, not patched
			}
		case m != a.masters[ci] && !sameArcShape(a.masters[ci], m):
			return false
		}
	}

	// The analyzer's cells, numbering and arc groups.
	keptVerts := int(a.cellBase[keptCells])
	a.cells = append(a.cells[:keptCells], d.Cells[keptCells:]...)
	a.masters = a.masters[:keptCells]
	for _, c := range d.Cells[keptCells:] {
		a.masters = append(a.masters, a.resolveMaster(c))
	}
	a.number(a.baseCells)
	if h := a.Cfg.Topology; h != nil && h != t && h.compatible(a) {
		a.topo, a.sharedTopo = h, true
		a.obsTopoShared.Add(1)
	} else {
		a.topo, a.sharedTopo = a.patchTopology(t, keptCells, keptNets, keptVerts, edits), false
		a.obsTopoPatched.Add(1)
	}
	a.growArcGroups(keptVerts)
	a.resizePlanes(false)
	nv := a.NumVerts()
	a.fValid.clearFrom(4 * keptVerts)
	a.rValid.clearFrom(4 * keptVerts)
	a.seedValid.clearFrom(2 * keptVerts)
	a.fArr.clearFrom(4 * keptVerts)
	a.fSlew.clearFrom(4 * keptVerts)
	a.fDepth.clearFrom(4 * keptVerts)
	a.fPred.clearFrom(4 * keptVerts)
	a.fReq.clearFrom(4 * keptVerts)
	a.seedReq.clearFrom(2 * keptVerts)
	a.revision = d.Revision()
	a.obsGraphVerts.Set(float64(nv))
	a.obsGraphLevels.Set(float64(a.topo.numLevels()))
	if !incremental {
		a.retypeKept(keptCells, false)
		return true
	}

	// Update's dirty set, on the net cache rebound to the design: pending
	// invalidations of what is gone are dropped, then the split and new
	// nets, the new vertices and every cell retyped since are marked.
	a.dirtyVerts = dropFrom(a.dirtyVerts, keptVerts)
	a.dirtyReq = dropFrom(a.dirtyReq, keptVerts)
	a.dirtyNets = dropFrom(a.dirtyNets, int32(keptNets))
	a.Cfg.Parasitics.Refresh(d)
	a.nets.grow(len(d.Nets))
	for i, n := range d.Nets[keptNets:] {
		nd := a.nets.at(keptNets + i)
		nd.net, nd.filled, nd.dirtyGen = n, false, 0
	}
	for i := keptVerts; i < nv; i++ {
		*a.vnd.at(i) = -1
		a.dirtyVerts = append(a.dirtyVerts, i)
		a.dirtyReq = append(a.dirtyReq, i)
	}
	rebind := func(n *netlist.Net) {
		if n.Driver != nil {
			a.bindVertexNet(a.pinVertex(n.Driver), n, true)
		}
		for _, l := range n.Loads {
			a.bindVertexNet(a.pinVertex(l), n, false)
		}
		if p := n.Port; p != nil {
			a.bindVertexNet(a.portVertex(p), n, p.Dir == netlist.Input)
		}
		a.InvalidateNet(n)
	}
	for _, e := range edits {
		if i := e.Net.Index(); i >= 0 && i < keptNets && d.Nets[i] == e.Net {
			rebind(e.Net)
		}
	}
	for _, n := range d.Nets[keptNets:] {
		rebind(n)
	}
	a.retypeKept(keptCells, true)
	return true
}

// dropFrom filters the entries at or past limit out of s, in place.
func dropFrom[T int | int32](s []T, limit T) []T {
	out := s[:0]
	for _, v := range s {
		if v < limit {
			out = append(out, v)
		}
	}
	return out
}

// retypeKept re-resolves the masters of the first n cells, which the
// patch has checked to keep their arc shape: with dirty, as InvalidateCell
// would have (Update absorbs a retype nobody flagged, as a Run does);
// otherwise only the cache, for the Run that follows.
func (a *Analyzer) retypeKept(n int, dirty bool) {
	for ci, c := range a.cells[:n] {
		if m := a.resolveMaster(c); m != a.masters[ci] {
			if dirty {
				a.InvalidateCell(c)
				continue
			}
			a.masters[ci] = m
			a.refreshPinCaps(ci, m)
		}
	}
}

// patchTopology returns t patched to the analyzer's cells and numbering
// (already current): vertices from keptVerts on, cells from keptCells on and
// nets from keptNets on are new, and the edits name the split nets. Arrays
// only appended to share t's storage when this is the one patch that may
// grow into it (Topology.grown); arrays with an entry that changed are
// copied, once per patch however many edits it replays. Which levels change
// is found over the forward cone of the vertices whose fanin changed.
func (a *Analyzer) patchTopology(t *Topology, keptCells, keptNets, keptVerts int, edits []netlist.Edit) *Topology {
	d := a.D
	nv := a.NumVerts()
	own := keptVerts == t.NumVerts() && keptCells == t.numCells && keptNets == t.numNets &&
		t.grown.CompareAndSwap(false, true)
	p := &Topology{
		numCells: len(d.Cells), numNets: len(d.Nets), numPorts: len(d.Ports),
		baseCells: t.baseCells, clockRoots: t.clockRoots, waves: new(waveIndex),
		kind:      extend(t.kind, keptVerts, nv, own),
		cellOf:    extend(t.cellOf, keptVerts, nv, own),
		isCKPin:   extend(t.isCKPin, keptVerts, nv, own),
		clockPath: extend(t.clockPath, keptVerts, nv, own),
		masters:   extend(t.masters, keptCells, len(d.Cells), own),
		netDriver: extend(t.netDriver, keptNets, len(d.Nets), own),
	}
	for ci := keptCells; ci < len(a.cells); ci++ {
		p.masters[ci] = a.masters[ci]
		for k, pin := range a.cells[ci].Pins {
			i := int(a.cellBase[ci]) + k
			p.kind[i], p.cellOf[i] = kindOf(pin, nil), int32(ci)
			p.isCKPin[i], p.clockPath[i] = seqClockPin(a.masters[ci], pin), false
		}
	}
	for ni := keptNets; ni < len(d.Nets); ni++ {
		p.netDriver[ni] = int32(a.netDriverVertex(d.Nets[ni]))
	}

	// The nets whose sinks moved: the split nets standing and every new net.
	// Their drivers' successor rows and their sinks' fanins are re-read.
	nets := make([]*netlist.Net, 0, len(edits)+len(d.Nets)-keptNets)
	for _, e := range edits {
		if i := e.Net.Index(); i >= 0 && i < keptNets && d.Nets[i] == e.Net && !slices.Contains(nets, e.Net) {
			nets = append(nets, e.Net)
		}
	}
	nets = append(nets, d.Nets[keptNets:]...)

	// Scratch: mark, on the derivation's, flags the kept drivers whose row
	// is re-read, then the cone; queue lists the cone, order it levelized,
	// each on storage sized to the largest cone so far.
	a.topoScratch = resize(a.topoScratch, nv)
	mark, queue, order := a.topoScratch[:nv], a.coneScratch[:0], a.coneOrder[:0]
	clear(mark)
	defer func() { a.coneScratch, a.coneOrder = queue[:0], order[:0] }()

	// Successors: kept rows copied, re-read rows and new rows walked.
	rowsMoved := false
	for _, n := range nets {
		if di := a.netDriverVertex(n); di >= 0 && di < keptVerts {
			mark[di] = 1
			if int(t.succOff[di+1]-t.succOff[di]) != n.Fanout() {
				rowsMoved = true
			}
		}
	}
	if rowsMoved {
		p.succOff = make([]int32, nv+1, nv+1+nv/8)
	} else {
		p.succOff = extend(t.succOff, keptVerts+1, nv+1, own)
	}
	edges := int(t.succOff[keptVerts]) + 2*(nv-keptVerts)
	for _, n := range nets {
		edges += n.Fanout()
	}
	p.succ = make([]int32, 0, edges)
	for i := 0; i < nv; i++ {
		if rowsMoved || i > keptVerts {
			p.succOff[i] = int32(len(p.succ)) // else shared, and already so
		}
		if i < keptVerts && mark[i] == 0 {
			p.succ = append(p.succ, t.succ[t.succOff[i]:t.succOff[i+1]]...)
			continue
		}
		a.successorsPointerWalk(p.cellOf, i, func(j int) { p.succ = append(p.succ, int32(j)) })
	}
	if rowsMoved || nv > keptVerts {
		p.succOff[nv] = int32(len(p.succ))
	}
	for _, n := range nets {
		if di := a.netDriverVertex(n); di >= 0 && di < keptVerts {
			mark[di] = 0
		}
	}

	// Fanins: copied, since a moved sink is a kept vertex whose driver
	// changes. The cone's seeds are the new vertices and every kept one
	// whose driver changed.
	p.faninDriver = fresh(t.faninDriver, keptVerts, nv)
	p.faninSink = fresh(t.faninSink, keptVerts, nv)
	for i := keptVerts; i < nv; i++ {
		p.faninDriver[i], p.faninSink[i] = -1, 0
		queue = append(queue, int32(i))
		mark[i] = 1
	}
	for _, n := range nets {
		di := int32(a.netDriverVertex(n))
		if di < 0 {
			continue
		}
		for _, l := range n.Loads {
			if li := a.pinVertex(l); li < keptVerts && t.faninDriver[li] != di && mark[li] == 0 {
				queue, mark[li] = append(queue, int32(li)), 1
			}
		}
		if q := n.Port; q != nil && q.Dir == netlist.Output {
			if qi := a.portVertex(q); t.faninDriver[qi] != di && mark[qi] == 0 {
				queue, mark[qi] = append(queue, int32(qi)), 1
			}
		}
		a.setNetFanins(p, n, di)
	}

	// Levels: the forward cone of the seeds, levelized by Kahn's algorithm
	// within it over the levels outside it, which do not change. mark holds
	// 1 + a cone vertex's in-cone fanin edges.
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, j := range p.succ[p.succOff[v]:p.succOff[v+1]] {
			if mark[j] == 0 {
				queue, mark[j] = append(queue, j), 1
			}
		}
	}
	cone := queue
	keptInCone := false
	for _, v := range cone {
		keptInCone = keptInCone || int(v) < keptVerts
		for _, j := range p.succ[p.succOff[v]:p.succOff[v+1]] {
			mark[j]++ // every successor of a cone vertex is in the cone
		}
	}
	// A kept vertex in the cone may move level: the levels are copied. The
	// cone's levels are written as Kahn's order reaches them, after all of
	// their fanins' (outside the cone, those are the old ones).
	if keptInCone {
		p.level = fresh(t.level, keptVerts, nv)
	} else {
		p.level = extend(t.level, keptVerts, nv, own)
	}
	for _, v := range cone {
		if mark[v] == 1 {
			order = append(order, v)
		}
	}
	top := int32(-1)
	for head := 0; head < len(order); head++ {
		v := order[head]
		l := int32(0)
		a.eachFanin(p, int(v), func(f int32) { l = max(l, p.level[f]+1) })
		p.level[v], top = l, max(top, l)
		if int(v) >= keptVerts {
			// A new vertex is on the clock network when a fanin that is
			// not a flip-flop's clock pin is. A kept one keeps its marking:
			// its driver now is marked as its old driver was.
			on := false
			a.eachFanin(p, int(v), func(f int32) { on = on || p.clockPath[f] && !p.isCKPin[f] })
			p.clockPath[v] = on
		}
		for _, j := range p.succ[p.succOff[v]:p.succOff[v+1]] {
			if mark[j]--; mark[j] == 1 {
				order = append(order, j)
			}
		}
	}
	if keptInCone || keptVerts < t.NumVerts() {
		top = -1
		for _, l := range p.level {
			top = max(top, l)
		}
		p.nLevels = int(top) + 1
	} else {
		p.nLevels = max(t.nLevels, int(top)+1)
	}
	return p
}

// eachFanin calls fn for every timing edge into vertex v of p: its net
// fanin, and for an output pin each input pin with an arc into it.
func (a *Analyzer) eachFanin(p *Topology, v int, fn func(f int32)) {
	if f := p.faninDriver[v]; f >= 0 {
		fn(f)
	}
	if p.kind[v] == vkOutPin {
		ci := p.cellOf[v]
		pin := a.cells[ci].Pins[v-int(a.cellBase[ci])]
		eachArc(a.masters[ci], pin, func(_ int, in *netlist.Pin) { fn(int32(a.pinVertex(in))) })
	}
}

// extend returns s's first keep elements grown to n, on s's storage when own
// (the caller holds the right to grow into it) and it fits, else on a copy
// with headroom; a shortened slice is clipped, so nothing grows into the
// storage past it, which the topology it was cut from still reads.
func extend[T any](s []T, keep, n int, own bool) []T {
	switch {
	case n <= keep:
		return s[:n:n]
	case own && n <= cap(s):
		return s[:n]
	}
	out := make([]T, n, n+n/8) // the next patch may grow into it
	copy(out, s[:keep])
	return out
}

// fresh returns a copy of s's first keep elements, n long: an array whose
// kept entries a patch changes, which the next patch copies again.
func fresh[T any](s []T, keep, n int) []T {
	out := make([]T, n)
	copy(out, s[:keep])
	return out
}
