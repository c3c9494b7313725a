package sta

import (
	"math"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/workpool"
)

const (
	// minParallelNets is the net count below which per-net delay
	// calculation stays serial: goroutine fan-out costs more than it saves
	// on tiny designs.
	minParallelNets = 64
	// minParallelLevel is the smallest wavefront worth splitting across
	// workers.
	minParallelLevel = 32
)

// Run performs a full graph-based timing update: delay calculation on every
// net, levelized arrival/slew propagation, and backward required times.
// Levels fan out across Cfg.Workers goroutines when the design is large
// enough; every vertex is recomputed by exactly one goroutine from
// already-finalized earlier levels, so results are bit-identical to a
// serial run. Run may be called again after any netlist edit (full re-time):
// retyped cells are re-resolved, a structural edit — the design's Revision
// moved — brings the graph current (a journaled buffer insert or LIFO
// removal is patched in, see patch; any other edit re-derives it, see
// regraph), and buffers and the per-net cache are reused across calls
// either way. It fails, with nothing
// timed, on what New fails on: an unknown master or a combinational cycle.
// Under RunCtx a cancellation abandons the run (ran stays false, so the next
// query re-times from scratch).
func (a *Analyzer) Run() error {
	run := a.Cfg.Obs.Start("sta.run", a.Cfg.ObsSpan)
	defer run.End()
	a.stats = RunStats{}
	a.ran = false
	if err := a.RefreshGraph(); err != nil {
		return err
	}
	a.buildSites()
	// One memclr per state array replaces the per-vertex reset loops.
	a.fValid.clearFrom(0)
	a.fArr.clearFrom(0)
	a.fSlew.clearFrom(0)
	a.fDepth.clearFrom(0)
	a.fPred.clearFrom(0)
	a.rValid.clearFrom(0)
	a.fReq.clearFrom(0)
	a.seedReq.clearFrom(0)
	a.seedValid.clearFrom(0)
	if err := a.canceled(); err != nil {
		return err
	}
	// One gang serves every fan-out of this Run; its helpers start on the
	// first wave that splits and are stopped however the Run ends.
	var g *workpool.Gang
	if w := workpool.Workers(a.Cfg.Workers); w > 1 {
		g = workpool.NewGang(nil, nil, "", w)
		defer g.Stop()
	}
	dc := a.Cfg.Obs.Start("sta.delay_calc", run)
	a.buildNets(g)
	dc.End()
	a.seedSources()
	fw := a.Cfg.Obs.Start("sta.arrivals", run)
	err := a.propagateArrivals(g)
	fw.End()
	if err != nil {
		return err
	}
	a.ran = true
	a.clearDirty()
	bw := a.Cfg.Obs.Start("sta.required", run)
	err = a.propagateRequired(g)
	bw.End()
	if err != nil {
		a.ran = false
		return err
	}
	a.publishRunStats()
	return nil
}

// resetForward clears vertex i's arrival-side state (incremental cone
// recompute; full runs memclr the whole arrays instead).
func (a *Analyzer) resetForward(i int) {
	k := ix4(i, 0, 0)
	clear(a.fValid.span(k, k+4))
	clear(a.fArr.span(k, k+4))
	clear(a.fSlew.span(k, k+4))
	clear(a.fDepth.span(k, k+4))
	clear(a.fPred.span(k, k+4))
}

// buildNets brings the parasitics table up to date with the design — the
// only step here that may synthesize a tree, so it runs serially and in net
// order — then refreshes per-net delay-calculation results on the entries
// and storage earlier runs allocated: the cache is kept one entry per D.Nets
// position, so a removed net's entry goes with the truncation and a
// renumbered net meets a neighbour's old entry, which fillNetData's input
// key turns into a refill. Per-net work is independent, so large designs
// fan it out on the Run's gang g (nil: serial).
func (a *Analyzer) buildNets(g *workpool.Gang) {
	a.Cfg.Parasitics.Refresh(a.D)
	nets := a.D.Nets
	a.nets.grow(len(nets))
	for i, n := range nets {
		a.nets.at(i).net = n
	}
	a.bindVertexNets()
	w := workpool.Workers(a.Cfg.Workers)
	if len(a.calc) < w {
		a.calc = append(a.calc, make([]calcScratch, w-len(a.calc))...)
	}
	if g == nil || len(nets) < minParallelNets {
		for i := range a.nets.len() {
			a.countNetFill(a.fillNetData(a.nets.at(i), &a.calc[0]))
		}
		return
	}
	// Cache-hit accounting under the fan-out: plain chunk-local counts,
	// left on the chunk's scratch and folded into the plain stats fields
	// after the wave — the hot per-net loop itself stays atomic-free.
	g.Wave(len(nets), func(lo, hi, k int) {
		h, f := int64(0), int64(0)
		for i := lo; i < hi; i++ {
			if a.fillNetData(a.nets.at(i), &a.calc[k]) {
				h++
			} else {
				f++
			}
		}
		a.calc[k].hits, a.calc[k].fills = h, f
	})
	for k := range a.calc {
		sc := &a.calc[k]
		a.stats.NetCacheHits += sc.hits
		a.stats.NetsFilled += sc.fills
		sc.hits, sc.fills = 0, 0
	}
}

// countNetFill accumulates one fillNetData outcome from a serial caller.
func (a *Analyzer) countNetFill(hit bool) {
	if hit {
		a.stats.NetCacheHits++
	} else {
		a.stats.NetsFilled++
	}
}

// bindVertexNets points each vertex at its relevant entry of nets: the
// driven net for output pins and input ports (the relax/pull context their
// rules read), the fanin net for input pins and output ports.
func (a *Analyzer) bindVertexNets() {
	for ci, c := range a.cells {
		for k, p := range c.Pins {
			a.bindVertexNet(int(a.cellBase[ci])+k, p.Net, p.Dir == netlist.Output)
		}
	}
	for k, q := range a.ports {
		a.bindVertexNet(int(a.portBase)+k, q.Net, q.Dir == netlist.Input)
	}
}

// bindVertexNet binds vertex i, on net n, to n's entry: always when it
// drives n, else only when n's driver feeds it a net edge.
func (a *Analyzer) bindVertexNet(i int, n *netlist.Net, drives bool) {
	if drives || a.topo.faninDriver[i] >= 0 {
		*a.vnd.at(i) = a.netIndex(n)
	} else {
		*a.vnd.at(i) = -1
	}
}

// fillNetData runs delay calculation for one net on the calling goroutine's
// scratch sc, writing into nd's own storage: a warm refill allocates
// nothing. Returns true when the cached results were reused untouched
// (callers fold the outcome into RunStats — this runs under the buildNets
// fan-out, so it cannot write shared state).
//
// The results are a pure function of the source RC tree, the gathered sink
// caps and the analyzer's fixed config, so when those inputs match the
// previous fill exactly the cached results are returned untouched —
// bit-identical to recomputation, and the reason a warm full Run does
// almost no delay calculation at all. The caps are gathered on sc and
// copied into nd only on a miss.
func (a *Analyzer) fillNetData(nd *netData, sc *calcScratch) bool {
	n := nd.net
	// Receiver pin caps in load order, plus output port load.
	caps := sc.gather[:0]
	for _, l := range n.Loads {
		caps = append(caps, *a.pinCap.at(a.pinVertex(l)))
	}
	portSink := n.Port != nil && n.Port.Dir == netlist.Output
	if portSink && a.Cons != nil {
		caps = append(caps, a.Cons.PortLoad)
	}
	sc.gather = caps
	tree := a.Cfg.Parasitics.Tree(n)
	if nd.filled && tree == nd.srcTree && portSink == nd.portSink && floatsEqual(caps, nd.caps()) {
		return true
	}
	nd.srcTree, nd.portSink, nd.filled = tree, portSink, true
	millerE, millerL := 1.0, 1.0
	if a.Cfg.SI.Enabled {
		millerE = 1 - a.Cfg.SI.SwitchingFraction
		millerL = 1 + a.Cfg.SI.SwitchingFraction
	}
	if tree == nil || a.Cfg.Wire == WireLumped || len(tree.Sinks) < n.Fanout() {
		// Lumped: no wire delay, zero wire slew, load = pin caps (+ wire
		// cap if a tree exists).
		nd.setResults(0, caps)
		sum := 0.0
		for _, c := range caps {
			sum += c
		}
		if tree != nil {
			nd.totalCap[early] = sum + tree.TotalCapM(a.Cfg.Scaling, millerE)
			nd.totalCap[late] = sum + tree.TotalCapM(a.Cfg.Scaling, millerL)
		} else {
			nd.totalCap[early] = sum
			nd.totalCap[late] = sum
		}
		return false
	}
	m := sc.Moments(tree, caps, a.Cfg.Scaling, millerE, millerL)
	nd.totalCap[early], nd.totalCap[late] = m.CapE, m.CapL
	k := len(tree.Sinks)
	nd.setResults(k, caps)
	dE, dL, slew := nd.res[:k], nd.res[k:2*k], nd.res[2*k:3*k]
	for i := range slew {
		slew[i] = parasitics.WireSlew(m.M1[i], m.M2[i])
	}
	if a.Cfg.Wire != WireD2M {
		copy(dE, m.M1E)
		copy(dL, m.M1L)
		return false
	}
	for i := range dE {
		d := parasitics.D2M(m.M1[i], m.M2[i])
		dE[i], dL[i] = d, d
		// D2M under Miller extremes approximated by Elmore ratio.
		if base := m.M1[i]; a.Cfg.SI.Enabled && base > 0 {
			dL[i] = d * m.M1L[i] / base
			dE[i] = d * m.M1E[i] / base
		}
	}
	return false
}

// floatsEqual reports exact element-wise equality — the condition under
// which skipping a recomputation is provably bit-identical.
func floatsEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// seedSources initializes arrivals at input ports.
func (a *Analyzer) seedSources() {
	if a.Cons == nil {
		return
	}
	for _, p := range a.D.Ports {
		if p.Dir == netlist.Input {
			a.seedVertex(a.portVertex(p))
		}
	}
}

// seedVertex applies the external-constraint arrival seed at vertex i, if
// it is an input port. Other vertices are untouched.
func (a *Analyzer) seedVertex(i int) {
	p := a.portAt(i)
	if p == nil || p.Dir != netlist.Input || a.Cons == nil {
		return
	}
	if a.Cons.FalseFrom[p] {
		return // set_false_path -from: no arrival, no checks
	}
	slew := a.Cons.InputSlew
	if ck := a.Cons.clockOf(p); ck != nil {
		// Clock root: rising edge at source latency.
		for el := 0; el < 2; el++ {
			k := ix4(i, rise, el)
			*a.fValid.at(k) = true
			*a.fArr.at(k) = timeVar{T: ck.SourceLatency}
			*a.fSlew.at(k) = slew
			*a.fPred.at(k) = seedPred
		}
		return
	}
	io, ok := a.Cons.InputDelay[p]
	min, max := 0.0, 0.0
	if ok {
		min, max = io.Min, io.Max
	}
	for rf := 0; rf < 2; rf++ {
		ke := ix4(i, rf, early)
		*a.fValid.at(ke) = true
		*a.fArr.at(ke) = timeVar{T: min}
		*a.fSlew.at(ke) = slew
		*a.fPred.at(ke) = seedPred
		kl := ix4(i, rf, late)
		*a.fValid.at(kl) = true
		*a.fArr.at(kl) = timeVar{T: max}
		*a.fSlew.at(kl) = slew
		*a.fPred.at(kl) = seedPred
	}
}

// propagateArrivals sweeps the level wavefronts in ascending order. Within
// a level each vertex gathers from its own fanins only (all at lower,
// finalized levels) and writes only itself, so splitting a level across
// the Run's gang g (nil: serial) is race-free and order-independent.
// Cancellation (RunCtx) is polled once per wavefront.
func (a *Analyzer) propagateArrivals(g *workpool.Gang) error {
	var relax func(lo, hi, k int)
	if g != nil {
		relax = func(lo, hi, _ int) {
			for _, j := range a.wave[lo:hi] {
				a.relaxVertex(int(j))
			}
		}
	}
	t := a.topo
	for l := 0; l < t.numLevels(); l++ {
		lvl := t.levelRange(l)
		if err := a.canceled(); err != nil {
			return err
		}
		// Stats stay in plain fields here (published once per run): the
		// outer level loop is serial even when the relaxation fans out.
		a.stats.Levels++
		if len(lvl) > a.stats.WidestWave {
			a.stats.WidestWave = len(lvl)
		}
		a.stats.NodesRelaxed += int64(len(lvl))
		if g == nil || len(lvl) < minParallelLevel {
			if g != nil {
				a.stats.SerialLevels++
			}
			for _, j := range lvl {
				a.relaxVertex(int(j))
			}
			continue
		}
		a.stats.ParallelLevels++
		a.wave = lvl
		g.Wave(len(lvl), relax)
	}
	return nil
}

// relaxVertex pulls vertex j's arrivals from its fanins: the driving net
// edge for input pins and output ports, the cell arcs for output pins.
// Input ports have no fanins (their seeds are applied separately).
func (a *Analyzer) relaxVertex(j int) {
	if a.topo.kind[j] == vkOutPin {
		a.relaxCellArcs(j)
		return
	}
	if di := a.topo.faninDriver[j]; di >= 0 {
		a.relaxNetEdge(int(di), j)
	}
}

// relaxCellArcs gathers output pin vertex j from every arc of its cell that
// terminates at this pin, using the prebuilt arc group — one master lookup
// per vertex and no arc scan on the hot path. A group entry names its arc by
// index in the cell's current master, and InvalidateCell / refreshMasters
// swap a master in place only under sameArcShape, so in-place retyping (Vt
// swap, resizing) is picked up without rebuild and an entry's index in
// a.arcs — what a predecessor records — names the same pin pair until the
// graph is re-derived.
func (a *Analyzer) relaxCellArcs(j int) {
	nd := a.vnet(j)
	if nd == nil {
		return // unloaded output: no delay calc context, same as before
	}
	m := a.masters[a.topo.cellOf[j]]
	lo := *a.arcOff.at(j)
	for g, ar := range a.group(j) {
		i, arc, ai := int(ar.other), &m.Arcs[ar.arc], lo+int32(g)
		for rfIn := 0; rfIn < 2; rfIn++ {
			outs, no := senseOuts(arc.Sense, rfIn)
			for oi := 0; oi < no; oi++ {
				for el := 0; el < 2; el++ {
					if !*a.fValid.at(ix4(i, rfIn, el)) {
						continue
					}
					a.relaxArc(arc, i, j, ai, rfIn, outs[oi], el, nd)
				}
			}
		}
	}
}

// merge folds a candidate arrival into vertex i. Returns true if it became
// the new worst.
func (a *Analyzer) merge(i, rf, el int, cand timeVar, slew float64, depth int32, pr pred) bool {
	k := ix4(i, rf, el)
	n := a.Cfg.Derate.NSigma()
	valid, arr, dep, sl := a.fValid.at(k), a.fArr.at(k), a.fDepth.at(k), a.fSlew.at(k)
	better := false
	if !*valid {
		better = true
	} else {
		cur := arr.corner(el == late, n)
		new := cand.corner(el == late, n)
		if el == late && new > cur {
			better = true
		}
		if el == early && new < cur {
			better = true
		}
	}
	if better {
		*arr = cand
		*a.fPred.at(k) = pr
	}
	// Depth is kept as the *minimum* over all merged candidates: AOCV
	// derates are largest at low depth, so GBA must assume the shallowest
	// reconverging path — pessimism that path-based analysis removes.
	if !*valid || depth < *dep {
		*dep = depth
	}
	// Slew merging is independent of arrival (graph-based pessimism: worst
	// slew at each pin regardless of which path it came from — exactly the
	// pessimism PBA later removes).
	if !*valid || el == late && slew > *sl || el == early && slew < *sl {
		*sl = slew
	}
	*valid = true
	return better
}

// relaxNetEdge folds driver i's arrivals into sink j across their net edge
// (netEdgeDelay), degrading the slew by the sink's wire slew.
func (a *Analyzer) relaxNetEdge(i, j int) {
	ws := a.vnet(j).sinkSlew(int(a.topo.faninSink[j]))
	for rf := 0; rf < 2; rf++ {
		for el := 0; el < 2; el++ {
			k := ix4(i, rf, el)
			if !*a.fValid.at(k) {
				continue
			}
			d := a.netEdgeDelay(i, j, rf, el)
			arr := a.fArr.at(k)
			cand := timeVar{T: arr.T + d, Var: arr.Var}
			s := *a.fSlew.at(k)
			slew := math.Sqrt(s*s + ws*ws)
			a.merge(j, rf, el, cand, slew, *a.fDepth.at(k), pred{from: int32(i<<1 | rf), arc: -1})
		}
	}
}

// senseOuts maps an input transition through an arc's unateness, returning
// the output transitions in the same order the pre-SoA enumeration used
// (tie-break identity depends on it) without a heap-allocated slice.
func senseOuts(s liberty.ArcSense, rfIn int) ([2]int, int) {
	switch s {
	case liberty.PositiveUnate:
		return [2]int{rfIn, 0}, 1
	case liberty.NegativeUnate:
		return [2]int{1 - rfIn, 0}, 1
	default:
		return [2]int{rise, fall}, 2
	}
}

// relaxArc folds input vertex i's arrival into output vertex j across cell
// arc `arc`, entry ai of j's group (arcDelay), recording ai as j's
// predecessor.
func (a *Analyzer) relaxArc(arc *liberty.TimingArc, i, j int, ai int32, rfIn, rfOut, el int, nd *netData) {
	k := ix4(i, rfIn, el)
	slewIn := *a.fSlew.at(k)
	load := nd.totalCap[el]
	outRise := rfOut == rise
	outSlew := arc.Slew(outRise, slewIn, load)
	depth := *a.fDepth.at(k) + 1
	d := a.mergedArcDelay(arc, i, rfIn, rfOut, el, nd)
	sigma := a.Cfg.Derate.Sigma(arc, outRise, el == late, slewIn, load, d)
	arr := a.fArr.at(k)
	cand := timeVar{T: arr.T + d, Var: arr.Var + sigma*sigma}
	a.merge(j, rfOut, el, cand, outSlew, depth, pred{from: int32(i<<1 | rfIn), arc: ai})
}
