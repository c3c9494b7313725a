package sta

import (
	"math"
	"sync/atomic"

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
// moved — re-derives the graph in place (see regraph), and buffers and the
// per-net cache are reused across calls either way. It fails, with nothing
// timed, on what New fails on: an unknown master or a combinational cycle.
// Under RunCtx a cancellation abandons the run (ran stays false, so the next
// query re-times from scratch).
func (a *Analyzer) Run() error {
	run := a.Cfg.Obs.Start("sta.run", a.Cfg.ObsSpan)
	defer run.End()
	a.stats = RunStats{}
	a.ran = false
	if err := a.refreshGraph(); err != nil {
		return err
	}
	a.buildSites()
	// One memclr per state array replaces the per-vertex reset loops.
	clear(a.fValid)
	clear(a.fArr)
	clear(a.fSlew)
	clear(a.fDepth)
	clear(a.fPred)
	clear(a.rValid)
	clear(a.fReq)
	clear(a.seedReq)
	clear(a.seedValid)
	if err := a.canceled(); err != nil {
		return err
	}
	dc := a.Cfg.Obs.Start("sta.delay_calc", run)
	a.buildNets()
	dc.End()
	a.seedSources()
	fw := a.Cfg.Obs.Start("sta.arrivals", run)
	err := a.propagateArrivals()
	fw.End()
	if err != nil {
		return err
	}
	a.ran = true
	a.clearDirty()
	bw := a.Cfg.Obs.Start("sta.required", run)
	err = a.propagateRequired()
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
	for p := k; p < k+4; p++ {
		a.fValid[p] = false
		a.fArr[p] = timeVar{}
		a.fSlew[p] = 0
		a.fDepth[p] = 0
		a.fPred[p] = pred{}
	}
}

// buildNets brings the parasitics table up to date with the design — the
// only step here that may synthesize a tree, so it runs serially and in net
// order — then refreshes per-net delay-calculation results on the entries
// and slices earlier runs allocated: the cache is kept one entry per D.Nets
// position, so a removed net's entry goes with the truncation and a
// renumbered net meets a neighbour's old entry, which fillNetData's input
// key turns into a refill. Per-net work is independent, so large designs
// fan it out through workpool.
func (a *Analyzer) buildNets() {
	a.Cfg.Parasitics.Refresh(a.D)
	nets := a.D.Nets
	maxSinks := 0
	for _, n := range nets {
		if s := n.Fanout(); s > maxSinks {
			maxSinks = s
		}
	}
	a.growZeroBuf(maxSinks)
	for i, n := range nets {
		if i == len(a.nets) {
			a.nets = append(a.nets, &netData{})
		}
		a.nets[i].net = n
	}
	clear(a.nets[len(nets):])
	a.nets = a.nets[:len(nets)]
	a.bindVertexNets()
	w := workpool.Workers(a.Cfg.Workers)
	if len(a.calc) < w {
		a.calc = append(a.calc, make([]parasitics.Scratch, w-len(a.calc))...)
	}
	if w <= 1 || len(nets) < minParallelNets {
		for _, nd := range a.nets {
			a.countNetFill(a.fillNetData(nd, &a.calc[0]))
		}
		return
	}
	// Cache-hit accounting under the fan-out: plain chunk-local counts,
	// one atomic add per chunk, folded into the plain stats fields after
	// the barrier — the hot per-net loop itself stays atomic-free.
	var hits, fills atomic.Int64
	workpool.DoChunksObs(nil, nil, "", w, len(nets), func(lo, hi, k int) {
		h, f := int64(0), int64(0)
		for _, nd := range a.nets[lo:hi] {
			if a.fillNetData(nd, &a.calc[k]) {
				h++
			} else {
				f++
			}
		}
		hits.Add(h)
		fills.Add(f)
	})
	a.stats.NetCacheHits += hits.Load()
	a.stats.NetsFilled += fills.Load()
}

// countNetFill accumulates one fillNetData outcome from a serial caller.
func (a *Analyzer) countNetFill(hit bool) {
	if hit {
		a.stats.NetCacheHits++
	} else {
		a.stats.NetsFilled++
	}
}

// bindVertexNets points each vertex at its relevant per-run net data: the
// driven net for output pins and input ports (the relax/pull context their
// rules read), the fanin net for input pins and output ports. netData
// structs are stable once created, so rebinding is a plain slice fill.
func (a *Analyzer) bindVertexNets() {
	for i := range a.verts {
		v := a.verts[i]
		switch a.topo.kind[i] {
		case vkOutPin:
			a.vnd[i] = a.netDataOf(v.pin.Net)
		case vkInPort:
			a.vnd[i] = a.netDataOf(v.port.Net)
		default: // vkInPin, vkOutPort
			a.vnd[i] = nil
			if ni := a.topo.faninNet[i]; ni >= 0 {
				a.vnd[i] = a.nets[ni]
			}
		}
	}
}

// growZeroBuf makes the shared all-zero sink slice at least n long.
func (a *Analyzer) growZeroBuf(n int) {
	if len(a.zeroBuf) < n {
		a.zeroBuf = make([]float64, n)
	}
}

// fillNetData runs delay calculation for one net on the kernel scratch sc
// (owned by the calling goroutine), writing into nd's own storage: a warm
// refill allocates nothing. Lumped nets share the analyzer's zero slice
// instead of holding per-net zero vectors. Returns true when the cached
// results were reused untouched (callers fold the outcome into RunStats —
// this runs under the buildNets fan-out, so it cannot write shared state).
//
// The results are a pure function of the source RC tree, the gathered sink
// caps and the analyzer's fixed config, so when those inputs match the
// previous fill exactly the cached results are returned untouched —
// bit-identical to recomputation, and the reason a warm full Run does
// almost no delay calculation at all.
func (a *Analyzer) fillNetData(nd *netData, sc *parasitics.Scratch) bool {
	n := nd.net
	// Receiver pin caps in load order, plus output port load.
	caps := nd.capsTmp[:0]
	for _, l := range n.Loads {
		caps = append(caps, a.pinCap[a.pinVertex(l)])
	}
	portSink := n.Port != nil && n.Port.Dir == netlist.Output
	if portSink && a.Cons != nil {
		caps = append(caps, a.Cons.PortLoad)
	}
	tree := a.Cfg.Parasitics.Tree(n)
	if nd.filled && tree == nd.srcTree && portSink == nd.portSink && floatsEqual(caps, nd.capsIn) {
		nd.capsTmp = caps[:0]
		return true
	}
	nd.capsTmp, nd.capsIn = nd.capsIn[:0], caps
	nd.srcTree, nd.portSink, nd.filled = tree, portSink, true
	nd.coupling = 0
	nSinks := n.Fanout()
	millerE, millerL := 1.0, 1.0
	if a.Cfg.SI.Enabled {
		millerE = 1 - a.Cfg.SI.SwitchingFraction
		millerL = 1 + a.Cfg.SI.SwitchingFraction
	}
	if tree == nil || a.Cfg.Wire == WireLumped || len(tree.Sinks) < nSinks {
		// Lumped: no wire delay, zero wire slew, load = pin caps (+ wire
		// cap if a tree exists).
		sum := 0.0
		for _, c := range caps {
			sum += c
		}
		if tree != nil {
			nd.coupling = tree.TotalCoupling(a.Cfg.Scaling)
			nd.totalCap[early] = sum + tree.TotalCapM(a.Cfg.Scaling, millerE)
			nd.totalCap[late] = sum + tree.TotalCapM(a.Cfg.Scaling, millerL)
		} else {
			nd.totalCap[early] = sum
			nd.totalCap[late] = sum
		}
		zero := a.zeroBuf[:nSinks]
		nd.sinkDelay[early] = zero
		nd.sinkDelay[late] = zero
		nd.sinkSlew = zero
		return false
	}
	m := sc.Moments(tree, caps, a.Cfg.Scaling, millerE, millerL)
	nd.coupling = m.Coupling
	nd.totalCap[early], nd.totalCap[late] = m.CapE, m.CapL
	k := len(tree.Sinks)
	if len(nd.buf) < 3*k {
		nd.buf = make([]float64, 3*k)
	}
	dE, dL, slew := nd.buf[:k:k], nd.buf[k:2*k:2*k], nd.buf[2*k:3*k]
	nd.sinkDelay[early], nd.sinkDelay[late], nd.sinkSlew = dE, dL, slew
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
	v := a.verts[i]
	if v.port == nil || v.port.Dir != netlist.Input || a.Cons == nil {
		return
	}
	p := v.port
	if a.Cons.FalseFrom[p] {
		return // set_false_path -from: no arrival, no checks
	}
	slew := a.Cons.InputSlew
	if ck := a.Cons.clockOf(p); ck != nil {
		// Clock root: rising edge at source latency.
		for el := 0; el < 2; el++ {
			k := ix4(i, rise, el)
			a.fValid[k] = true
			a.fArr[k] = timeVar{T: ck.SourceLatency}
			a.fSlew[k] = slew
			a.fPred[k] = seedPred
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
		a.fValid[ke] = true
		a.fArr[ke] = timeVar{T: min}
		a.fSlew[ke] = slew
		a.fPred[ke] = seedPred
		kl := ix4(i, rf, late)
		a.fValid[kl] = true
		a.fArr[kl] = timeVar{T: max}
		a.fSlew[kl] = slew
		a.fPred[kl] = seedPred
	}
}

// propagateArrivals sweeps the level wavefronts in ascending order. Within
// a level each vertex gathers from its own fanins only (all at lower,
// finalized levels) and writes only itself, so splitting a level across
// goroutines is race-free and order-independent. Cancellation (RunCtx) is
// polled once per wavefront.
func (a *Analyzer) propagateArrivals() error {
	w := workpool.Workers(a.Cfg.Workers)
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
		if w <= 1 || len(lvl) < minParallelLevel {
			if w > 1 {
				a.stats.SerialLevels++
			}
			for _, j := range lvl {
				a.relaxVertex(int(j))
			}
			continue
		}
		a.stats.ParallelLevels++
		workpool.DoChunks(w, len(lvl), func(lo, hi int) {
			for _, j := range lvl[lo:hi] {
				a.relaxVertex(int(j))
			}
		})
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
// terminates at this pin, using the prebuilt arc group — no master lookup
// or arc scan on the hot path. The group is patched in place by
// InvalidateCell / refreshMasters only under sameArcShape, so in-place
// retyping (Vt swap, resizing) is picked up without rebuild and an arc's
// index in a.arcs — what a predecessor records — names the same pin pair
// until the graph is re-derived.
func (a *Analyzer) relaxCellArcs(j int) {
	nd := a.vnd[j]
	if nd == nil {
		return // unloaded output: no delay calc context, same as before
	}
	for ai := a.arcOff[j]; ai < a.arcOff[j+1]; ai++ {
		i := int(a.arcs[ai].other)
		for rfIn := 0; rfIn < 2; rfIn++ {
			outs, no := senseOuts(a.arcs[ai].arc.Sense, rfIn)
			for oi := 0; oi < no; oi++ {
				for el := 0; el < 2; el++ {
					if !a.fValid[ix4(i, rfIn, el)] {
						continue
					}
					a.relaxArc(i, j, ai, rfIn, outs[oi], el, nd)
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
	valid := a.fValid[k]
	better := false
	if !valid {
		better = true
	} else {
		cur := a.fArr[k].corner(el == late, n)
		new := cand.corner(el == late, n)
		if el == late && new > cur {
			better = true
		}
		if el == early && new < cur {
			better = true
		}
	}
	if better {
		a.fArr[k] = cand
		a.fPred[k] = pr
	}
	// Depth is kept as the *minimum* over all merged candidates: AOCV
	// derates are largest at low depth, so GBA must assume the shallowest
	// reconverging path — pessimism that path-based analysis removes.
	if !valid || depth < a.fDepth[k] {
		a.fDepth[k] = depth
	}
	// Slew merging is independent of arrival (graph-based pessimism: worst
	// slew at each pin regardless of which path it came from — exactly the
	// pessimism PBA later removes).
	if !valid {
		a.fSlew[k] = slew
	} else if el == late && slew > a.fSlew[k] {
		a.fSlew[k] = slew
	} else if el == early && slew < a.fSlew[k] {
		a.fSlew[k] = slew
	}
	a.fValid[k] = true
	return better
}

// relaxNetEdge folds driver i's arrivals into sink j across their net edge
// (netEdgeDelay), degrading the slew by the sink's wire slew.
func (a *Analyzer) relaxNetEdge(i, j int) {
	ws := a.vnd[j].sinkSlew[a.topo.faninSink[j]]
	for rf := 0; rf < 2; rf++ {
		for el := 0; el < 2; el++ {
			k := ix4(i, rf, el)
			if !a.fValid[k] {
				continue
			}
			d := a.netEdgeDelay(i, j, rf, el)
			cand := timeVar{T: a.fArr[k].T + d, Var: a.fArr[k].Var}
			s := a.fSlew[k]
			slew := math.Sqrt(s*s + ws*ws)
			a.merge(j, rf, el, cand, slew, a.fDepth[k], pred{from: int32(i<<1 | rf), arc: -1})
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
// arc a.arcs[ai] (arcDelay), recording the arc's index as j's predecessor.
func (a *Analyzer) relaxArc(i, j int, ai int32, rfIn, rfOut, el int, nd *netData) {
	arc := a.arcs[ai].arc
	k := ix4(i, rfIn, el)
	slewIn := a.fSlew[k]
	load := nd.totalCap[el]
	outRise := rfOut == rise
	outSlew := arc.Slew(outRise, slewIn, load)
	depth := a.fDepth[k] + 1
	d := a.mergedArcDelay(arc, i, rfIn, rfOut, el, nd)
	sigma := a.Cfg.Derate.Sigma(arc, outRise, el == late, slewIn, load, d)
	cand := timeVar{
		T:   a.fArr[k].T + d,
		Var: a.fArr[k].Var + sigma*sigma,
	}
	a.merge(j, rfOut, el, cand, outSlew, depth, pred{from: int32(i<<1 | rfIn), arc: ai})
}
