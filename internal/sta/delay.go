package sta

import "newgame/internal/liberty"

// The two delay rules. Everything that asks what an edge of the timing graph
// costs — the forward pass (relaxArc, relaxNetEdge), the required-time pull
// (pullArcRequired, pullNetRequired), k-worst enumeration (pushInEdges), the
// worst-path backtrace (worstPath, through edgeDelay) and PBA — asks here, so
// a margin is stacked on a delay in exactly one place and no pass can charge
// an edge differently from the forward one.

// arcDelay is what cell arc `arc` out of input-pin vertex in costs on side el
// (early|late) for the given output transition: the table delay at
// (slewIn, load), times the variation derate at stage `depth` — keyed on
// whether the arc's *input* is on the clock network, so a launch flop's CK→Q
// is clock-path delay for every caller — times the side's MIS factor, times
// the instance's IR-droop derate. GBA callers pass the vertex's merged slew
// and depth, PBA the path's own.
func (a *Analyzer) arcDelay(arc *liberty.TimingArc, in int, outRise bool, el int, slewIn float64, depth int, load float64) float64 {
	d := arc.Delay(outRise, slewIn, load)
	d *= a.Cfg.Derate.Factor(CellDelay, a.topo.clockPath[in], el == late, depth)
	if a.Cfg.MIS {
		if el == early && arc.MISFactorFast > 0 {
			d *= arc.MISFactorFast
		}
		if el == late && arc.MISFactorSlow > 0 {
			d *= arc.MISFactorSlow
		}
	}
	return d * a.cellDerate(in, el == late)
}

// mergedArcDelay is arcDelay at input vertex i's merged slew and depth on
// side el, into the output driving nd: what the forward pass charges the arc
// (GBA).
func (a *Analyzer) mergedArcDelay(arc *liberty.TimingArc, i, rfIn, rfOut, el int, nd *netData) float64 {
	k := ix4(i, rfIn, el)
	return a.arcDelay(arc, i, rfOut == rise, el, *a.fSlew.at(k), int(*a.fDepth.at(k))+1, nd.totalCap[el])
}

// edgeDelay is what the edge predecessor p names into vertex j costs on side
// el for j's transition rf — asked with the inputs the forward pass relaxed
// it with, so it is bit-identical to what that pass charged. A seed has no
// edge and costs 0.
func (a *Analyzer) edgeDelay(p pred, j, rf, el int) float64 {
	v, rfIn := p.source()
	switch {
	case v < 0:
		return 0
	case !p.cell():
		return a.netEdgeDelay(v, j, rf, el)
	}
	return a.mergedArcDelay(a.arcOf(j, p.arc), v, rfIn, rf, el, a.vnet(j))
}

// netEdgeDelay is what the net edge from driving vertex i to sink vertex j
// costs on side el for transition rf: the sink's wire delay, derated at the
// driver's merged depth, plus — on a flip-flop clock pin — the useful-skew
// offset scheduled on that flop (an intentional delay element that shifts
// early and late clock arrivals alike), scaled to this view's corner.
func (a *Analyzer) netEdgeDelay(i, j, rf, el int) float64 {
	extra := 0.0
	if a.topo.isCKPin[j] && a.Cons != nil {
		extra = a.Cons.ExtraCKLatency[a.cells[a.topo.cellOf[j]]]
		if s := a.Cfg.CKLatencyScale; s > 0 {
			extra *= s
		}
	}
	wire := a.vnet(j).sinkDelay(el, int(a.topo.faninSink[j]))
	f := a.Cfg.Derate.Factor(NetDelay, a.topo.clockPath[i], el == late, int(*a.fDepth.at(ix4(i, rf, el))))
	return wire*f + extra
}

// cellDerate evaluates the per-instance (IR-drop) derate for the cell of
// pin vertex i, with the late/early clamping documented on Config.CellDerate.
func (a *Analyzer) cellDerate(i int, lateSide bool) float64 {
	if a.Cfg.CellDerate == nil {
		return 1
	}
	f := a.Cfg.CellDerate(a.cells[a.topo.cellOf[i]])
	if lateSide {
		if f < 1 {
			return 1
		}
	} else if f > 1 {
		return 1
	}
	return f
}
