package sta

import "newgame/internal/netlist"

// Incremental re-timing: after an optimization pass retypes a handful of
// cells (Vt swap, resizing, recovery), a full Run re-propagates the whole
// graph even though only the edited cells' fan-in nets and forward cones
// moved. InvalidateCell/InvalidateNet record what changed; Update redoes
// delay calculation for dirty nets only, re-relaxes the affected forward
// cone level by level (stopping wherever values settle), and recomputes
// required times backward from the endpoints and edges that actually
// moved. Because Update re-runs the exact same per-vertex recompute the
// full pass uses, its results are bit-identical to a fresh Run. A buffer
// inserted or taken out through the design's journaled edits is patched into
// the graph and re-timed as a cone like any other; other structural edits
// (cells and nets added or removed otherwise, moved pins, retypes that
// change a cell's arc shape) fall back to a full Run, which re-derives the
// graph on this analyzer's own storage: no edit needs a new Analyzer.

// InvalidateNet marks a net's delay calculation stale (load caps, NDR,
// or parasitics changed).
func (a *Analyzer) InvalidateNet(n *netlist.Net) {
	ni := a.netIndex(n)
	if ni < 0 {
		// Not a net the last re-time timed. Since then the graph either
		// moves by a patch, which re-times every new net anyway, or is
		// derived afresh; if nothing moved the net is not this design's.
		a.structDirty = a.structDirty || a.D.Revision() == a.revision
		return
	}
	if nd := a.nets.at(int(ni)); nd.dirtyGen != a.dirtyGen {
		nd.dirtyGen = a.dirtyGen
		a.dirtyNets = append(a.dirtyNets, ni)
	}
}

// InvalidateCell marks cell c's timing stale after an in-place master swap
// (SetType to a variant with identical pin names and directions): the nets
// driving its inputs see new pin caps, its output vertices get new arc
// tables, and its input pins' required times depend on those tables. It is
// also the invalidation seam for the per-cell master cache: the cached
// master and pin caps are refreshed here (the arc groups name arcs by index,
// which the new master resolves alike), so the following Update reads the
// new master everywhere the old code resolved it live.
func (a *Analyzer) InvalidateCell(c *netlist.Cell) {
	m := a.resolveMaster(c)
	if m == nil {
		a.structDirty = true
		return
	}
	ci := a.cellOf(c)
	if ci < 0 {
		a.structDirty = a.structDirty || a.D.Revision() == a.revision // as for a net
		return
	}
	if m != a.masters[ci] {
		if !sameArcShape(a.masters[ci], m) {
			// The arc footprint moved: prebuilt groups and the CSR no
			// longer describe the cell. Leave the cache stale — the full
			// Run this forces re-resolves and re-derives the graph.
			a.structDirty = true
			return
		}
		a.masters[ci] = m
		a.refreshPinCaps(ci, m)
	}
	for k, p := range c.Pins {
		i := int(a.cellBase[ci]) + k
		if p.Dir == netlist.Input {
			if p.Net != nil {
				a.InvalidateNet(p.Net)
			}
			a.dirtyReq = append(a.dirtyReq, i)
		} else {
			a.dirtyVerts = append(a.dirtyVerts, i)
		}
	}
}

// dirty reports whether invalidations are pending.
func (a *Analyzer) dirty() bool {
	return a.structDirty || len(a.dirtyNets) > 0 || len(a.dirtyVerts) > 0 || len(a.dirtyReq) > 0
}

// clearDirty forgets all pending invalidations (a full Run covers them).
// Moving the generation takes every net off the dirty list at once.
func (a *Analyzer) clearDirty() {
	a.structDirty = false
	a.dirtyGen++
	if a.dirtyGen == 0 { // wrapped: a stale mark could read as current
		for i := range a.nets.len() {
			a.nets.at(i).dirtyGen = 0
		}
		a.dirtyGen = 1
	}
	a.dirtyNets = a.dirtyNets[:0]
	a.dirtyVerts = a.dirtyVerts[:0]
	a.dirtyReq = a.dirtyReq[:0]
}

// netDriverVertex returns the vertex driving net n — its driver pin's, else
// its input port's — or -1.
func (a *Analyzer) netDriverVertex(n *netlist.Net) int {
	if n.Driver != nil {
		return a.pinVertex(n.Driver)
	}
	if n.Port != nil && n.Port.Dir == netlist.Input {
		return a.portVertex(n.Port)
	}
	return -1
}

// incrementalSafe verifies the dirty nets still have the connectivity the
// analysis graph was built from. Edits through the Design's methods move its
// Revision, which Update checks first; this catches loads or drivers moved
// by direct field writes on the nets an Update is about to recompute.
func (a *Analyzer) incrementalSafe() bool {
	for _, ni := range a.dirtyNets {
		n := a.nets.at(int(ni)).net
		if n.Driver != nil && a.pinVertex(n.Driver) < 0 || n.Port != nil && a.portVertex(n.Port) < 0 {
			return false
		}
		d := int32(a.netDriverVertex(n))
		if d < 0 && len(n.Loads) > 0 {
			return false
		}
		for si, l := range n.Loads {
			i := a.pinVertex(l)
			if i < 0 || a.topo.faninDriver[i] != d || int(a.topo.faninSink[i]) != si {
				return false
			}
		}
	}
	return true
}

// levelQueue is a deduplicating worklist bucketed by topological level.
// Forward sweeps drain ascending (pushes go to higher levels only);
// backward sweeps drain descending (pushes go to lower levels only), so a
// bucket is never appended to after it has been drained. The queue is
// reused across Updates and across graph derivations: reset resizes it to
// the graph on its own storage, buckets keeping their capacity, and bumps
// the generation instead of clearing the per-vertex marks.
type levelQueue struct {
	buckets [][]int
	mark    []uint32
	gen     uint32
}

// reset empties the queue for a graph of levels levels and nv vertices.
// Every mark left behind, in or beyond the new length, is from an older
// generation.
func (q *levelQueue) reset(levels, nv int) {
	q.buckets = resize(q.buckets, levels)
	q.mark = resize(q.mark, nv)
	q.gen++
	if q.gen == 0 { // wrapped: marks are ambiguous, clear them
		clear(q.mark[:cap(q.mark)])
		q.gen = 1
	}
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
}

func (q *levelQueue) push(i, level int) {
	if q.mark[i] == q.gen {
		return
	}
	q.mark[i] = q.gen
	q.buckets[level] = append(q.buckets[level], i)
}

// fwdState snapshots the arrival-side values change detection compares.
// pred is deliberately excluded: it is derived alongside these values and
// cannot change while they stay bit-identical.
type fwdState struct {
	valid [4]bool
	arr   [4]timeVar
	slew  [4]float64
	depth [4]int32
}

func (a *Analyzer) snapshotFwd(i int) fwdState {
	k := ix4(i, 0, 0)
	return fwdState{
		valid: [4]bool(a.fValid.span(k, k+4)),
		arr:   [4]timeVar(a.fArr.span(k, k+4)),
		slew:  [4]float64(a.fSlew.span(k, k+4)),
		depth: [4]int32(a.fDepth.span(k, k+4)),
	}
}

func (a *Analyzer) fwdChanged(i int, s fwdState) bool { return a.snapshotFwd(i) != s }

type reqState struct {
	valid [4]bool
	req   [4]float64
}

func (a *Analyzer) snapshotReq(i int) reqState {
	k := ix4(i, 0, 0)
	return reqState{valid: [4]bool(a.rValid.span(k, k+4)), req: [4]float64(a.fReq.span(k, k+4))}
}

func (a *Analyzer) reqChanged(i int, s reqState) bool { return a.snapshotReq(i) != s }

// pushFanins invokes fn for every timing edge *into* vertex i — the
// reverse of successors: the driving net edge plus, for an output pin, the
// prebuilt arc group's input pins.
func (a *Analyzer) pushFanins(i int, fn func(j int)) {
	if d := a.topo.faninDriver[i]; d >= 0 {
		fn(int(d))
	}
	if a.topo.kind[i] == vkOutPin {
		for _, ar := range a.group(i) {
			fn(int(ar.other))
		}
	}
}

// Update incrementally re-times the design after InvalidateCell /
// InvalidateNet calls and after buffers inserted or taken out by the
// design's journaled edits, which it patches into the graph first (see
// patch): their dirty set is the split nets, the new nets, the buffers and
// the moved sinks, plus any cell retyped since, flagged or not. It falls
// back to a full Run when no prior Run exists or any other structural edit
// is detected (the design's Revision moved past what the journal carries,
// or an invalidation said so), and is a no-op when nothing is dirty. Results
// are bit-identical to a fresh Run on the same netlist. Under UpdateCtx a
// cancellation abandons the update mid-cone and marks the analyzer
// structurally dirty, so the next Update falls back to a full Run rather
// than trusting half-propagated state.
func (a *Analyzer) Update() error {
	if a.ran && !a.structDirty && a.D.Revision() != a.revision {
		a.patch(true)
	}
	if !a.ran || a.structDirty || a.D.Revision() != a.revision || !a.incrementalSafe() {
		a.obsFullRunFallback.Add(1)
		return a.Run()
	}
	if !a.dirty() {
		return nil
	}
	sp := a.Cfg.Obs.Start("sta.update", a.Cfg.ObsSpan)
	defer sp.End()
	a.obsIncUpdates.Add(1)
	a.stats = RunStats{}
	recomputed := 0
	abort := func(err error) error {
		a.structDirty = true
		return err
	}

	// Phase 1: redo delay calculation for dirty nets.
	for _, ni := range a.dirtyNets {
		a.countNetFill(a.fillNetData(a.nets.at(int(ni)), &a.calc[0]))
	}

	// Phase 2: forward cone. Seed the worklist with every vertex whose
	// inputs moved — dirty nets touch their driver (arc load) and sinks
	// (wire delay), retyped cells touch their output pins (arc tables) —
	// then sweep ascending; a vertex whose recomputed state is unchanged
	// does not wake its fanout.
	fw := &a.fwQ
	fw.reset(a.topo.numLevels(), a.NumVerts())
	level := a.topo.level
	seedFwd := func(i int) { fw.push(i, int(level[i])) }
	for _, ni := range a.dirtyNets {
		n := a.nets.at(int(ni)).net
		if d := a.netDriverVertex(n); d >= 0 {
			seedFwd(d)
		}
		for _, l := range n.Loads {
			seedFwd(a.pinVertex(l))
		}
		if p := n.Port; p != nil && p.Dir == netlist.Output {
			seedFwd(a.portVertex(p))
		}
	}
	for _, i := range a.dirtyVerts {
		seedFwd(i)
	}
	a.changedList = a.changedList[:0]
	for li := 0; li < len(fw.buckets); li++ {
		if err := a.canceled(); err != nil {
			return abort(err)
		}
		for _, i := range fw.buckets[li] {
			old := a.snapshotFwd(i)
			a.resetForward(i)
			a.seedVertex(i)
			a.relaxVertex(i)
			recomputed++
			if a.fwdChanged(i, old) {
				// The queue hands each vertex out once, so the list is a set.
				a.changedList = append(a.changedList, i)
				a.successors(i, func(j int) { fw.push(j, int(level[j])) })
			}
		}
	}

	// Phase 3: backward cone. Required times must be recomputed wherever
	// (a) the vertex's own forward state moved (it feeds the edge delays),
	// (b) an endpoint check's seed moved, (c) an outgoing edge's delay
	// context moved (dirty net at the driver, new arc tables at retyped
	// cells' input pins), or (d) a successor's required time moved —
	// discovered during the descending sweep.
	if a.Cons != nil {
		bw := &a.bwQ
		bw.reset(a.topo.numLevels(), a.NumVerts())
		seedBwd := func(i int) { bw.push(i, int(level[i])) }
		// Re-evaluate the checks from the (already final) new arrivals; a
		// site whose seed moved restarts the backward cone at its data vertex.
		a.refreshChecks()
		for _, i := range a.seedMoved {
			seedBwd(int(i))
		}
		for _, i := range a.changedList {
			seedBwd(i)
		}
		for _, i := range a.dirtyReq {
			seedBwd(i)
		}
		for _, ni := range a.dirtyNets {
			d := a.netDriverVertex(a.nets.at(int(ni)).net)
			if d < 0 {
				continue
			}
			seedBwd(d)
			// The driver cell's input pins see the dirty net's new total
			// cap through their backward arc-delay recomputation.
			if ci := a.topo.cellOf[d]; ci >= 0 {
				for k, p := range a.cells[ci].Pins {
					if p.Dir == netlist.Input {
						seedBwd(int(a.cellBase[ci]) + k)
					}
				}
			}
		}
		for li := len(bw.buckets) - 1; li >= 0; li-- {
			if err := a.canceled(); err != nil {
				return abort(err)
			}
			for _, i := range bw.buckets[li] {
				old := a.snapshotReq(i)
				a.recomputeRequired(i)
				recomputed++
				if a.reqChanged(i, old) {
					a.pushFanins(i, func(j int) { bw.push(j, int(level[j])) })
				}
			}
		}
	}
	a.clearDirty()
	a.stats.NodesRelaxed = int64(recomputed)
	a.obsVertsRecomputed.Add(int64(recomputed))
	a.obsNodesRelaxed.Add(int64(recomputed))
	a.publishNetCacheStats()
	a.obsConeVerts.Observe(float64(recomputed))
	if n := a.NumVerts(); n > 0 {
		a.obsConeRatio.Observe(float64(recomputed) / float64(n))
	}
	sp.SetFloat("vertices_recomputed", float64(recomputed))
	return nil
}

// recomputeRequired rebuilds vertex i's required times from scratch: its
// recorded endpoint seed plus a pull from its (final) successors.
func (a *Analyzer) recomputeRequired(i int) {
	k := ix4(i, 0, 0)
	clear(a.rValid.span(k, k+4))
	clear(a.fReq.span(k, k+4))
	for rf := 0; rf < 2; rf++ {
		if *a.seedValid.at(ix2(i, rf)) {
			*a.fReq.at(ix4(i, rf, late)) = *a.seedReq.at(ix2(i, rf))
			*a.rValid.at(ix4(i, rf, late)) = true
		}
	}
	a.pullRequired(i)
}
