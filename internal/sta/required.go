package sta

import "newgame/internal/workpool"

// propagateRequired runs the backward (required-time) pass for setup (late)
// analysis, giving per-pin slacks for optimization and breakdown reports.
// Required times are mean-based: statistical deraters' sigma is applied at
// endpoints only (documented limitation; endpoint slacks remain exact).
// The sweep walks the level wavefronts in descending order — a vertex pulls
// from its successors, which all sit at strictly higher (already finalized)
// levels, so a level can split across the Run's gang g (nil: serial) just
// like the forward pass. Cancellation (RunCtx) is polled once per wavefront.
func (a *Analyzer) propagateRequired(g *workpool.Gang) error {
	a.seedRequired()
	if a.Cons == nil {
		return nil
	}
	var pull func(lo, hi, k int)
	if g != nil {
		pull = func(lo, hi, _ int) {
			for _, i := range a.wave[lo:hi] {
				a.pullRequired(int(i))
			}
		}
	}
	t := a.topo
	for li := t.numLevels() - 1; li >= 0; li-- {
		lvl := t.levelRange(li)
		if err := a.canceled(); err != nil {
			return err
		}
		a.stats.NodesRelaxed += int64(len(lvl))
		if g == nil || len(lvl) < minParallelLevel {
			if g != nil {
				a.stats.SerialLevels++
			}
			for _, i := range lvl {
				a.pullRequired(int(i))
			}
			continue
		}
		a.stats.ParallelLevels++
		a.wave = lvl
		g.Wave(len(lvl), pull)
	}
	return nil
}

// seedRequired evaluates the endpoint checks of a full Run and seeds the
// required times from them. Run cleared every recorded seed, so the sweep
// reports exactly the seeded vertices as moved.
func (a *Analyzer) seedRequired() {
	a.refreshChecks()
	for _, i := range a.seedMoved {
		for rf := 0; rf < 2; rf++ {
			if k := ix2(int(i), rf); *a.seedValid.at(k) {
				a.lowerReq(int(i), rf, *a.seedReq.at(k))
			}
		}
	}
}

// pullRequired relaxes vertex i's required time from its outgoing edges:
// net edges for drivers and input ports, cell arcs for input pins. Only
// vertex i is written, which is what makes the level sweep race-free.
func (a *Analyzer) pullRequired(i int) {
	switch a.topo.kind[i] {
	case vkInPort, vkOutPin:
		a.pullNetRequired(i)
	case vkInPin:
		a.pullArcRequired(i)
	}
}

// lowerReq relaxes a required time downward (setup required is a min).
func (a *Analyzer) lowerReq(i, rf int, r float64) {
	k := ix4(i, rf, late)
	if !*a.rValid.at(k) || r < *a.fReq.at(k) {
		*a.fReq.at(k) = r
		*a.rValid.at(k) = true
	}
}

// pullNetRequired pulls sink required times back to driving vertex i across
// the net edges the forward pass relaxed (netEdgeDelay), one pass over the
// frozen successor range.
func (a *Analyzer) pullNetRequired(i int) {
	t := a.topo
	for _, j32 := range t.succ[t.succOff[i]:t.succOff[i+1]] {
		j := int(j32)
		for rf := 0; rf < 2; rf++ {
			if !*a.rValid.at(ix4(j, rf, late)) || !*a.fValid.at(ix4(i, rf, late)) {
				continue
			}
			a.lowerReq(i, rf, *a.fReq.at(ix4(j, rf, late))-a.netEdgeDelay(i, j, rf, late))
		}
	}
}

// pullArcRequired pulls output-pin required times back through the prebuilt
// cell-arc group to input pin i.
func (a *Analyzer) pullArcRequired(i int) {
	m := a.masters[a.topo.cellOf[i]]
	for _, ar := range a.group(i) {
		j, arc := int(ar.other), &m.Arcs[ar.arc]
		nd := a.vnet(j)
		if nd == nil {
			continue // arc into an unloaded output
		}
		for rfIn := 0; rfIn < 2; rfIn++ {
			if !*a.fValid.at(ix4(i, rfIn, late)) {
				continue
			}
			outs, no := senseOuts(arc.Sense, rfIn)
			for oi := 0; oi < no; oi++ {
				rfOut := outs[oi]
				if !*a.rValid.at(ix4(j, rfOut, late)) {
					continue
				}
				d := a.mergedArcDelay(arc, i, rfIn, rfOut, late, nd)
				a.lowerReq(i, rfIn, *a.fReq.at(ix4(j, rfOut, late))-d)
			}
		}
	}
}
