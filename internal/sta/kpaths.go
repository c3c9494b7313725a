package sta

import (
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/units"
)

// PathsWithin enumerates the distinct late paths into an endpoint whose
// arrival is within `window` ps of the endpoint's worst arrival — the
// report_timing -slack_lesser_than view a closure engineer works from (the
// worst path alone under-reports how much logic needs fixing). Paths are
// returned worst-first, at most maxPaths of them. Only setup (late)
// endpoints are supported; arrivals are mean-based under statistical
// deraters.
func (a *Analyzer) PathsWithin(e EndpointSlack, window units.Ps, maxPaths int) []Path {
	if e.Kind != Setup || maxPaths <= 0 {
		return nil
	}
	endV := a.endpointVertex(e)
	if endV < 0 || !a.fValid[ix4(endV, e.RF, late)] {
		return nil
	}
	worst := a.fArr[ix4(endV, e.RF, late)].T
	floor := worst - window

	// Backward DFS enumerating suffix arrivals: a partial path from the
	// endpoint back to vertex (v, rf) has accumulated delay `suffix`; its
	// best possible total arrival is arr(v) + suffix, prunable against
	// floor. Each in-edge candidate is explored in decreasing contribution
	// order so results lean worst-first (exact global order is restored by
	// the final sort).
	type frame struct {
		v, rf  int
		suffix float64
	}
	var out []Path
	var steps []PathStep // endpoint-last, built root-ward then reversed

	var dfs func(fr frame)
	dfs = func(fr frame) {
		if len(out) >= maxPaths {
			return
		}
		k := ix4(fr.v, fr.rf, late)
		pr := a.fPred[k]
		if pr.v < 0 || !a.fValid[k] {
			// Reached a source: emit the path (steps are endpoint-first).
			p := Path{Endpoint: e, GBASlack: e.Slack + (worst - (a.fArr[k].T + fr.suffix))}
			p.Steps = append(p.Steps, PathStep{
				Name: a.vname(fr.v), RF: fr.rf,
				Arrival: a.fArr[k].T,
				Slew:    a.fSlew[k],
				vid:     fr.v,
			})
			for i := len(steps) - 1; i >= 0; i-- {
				p.Steps = append(p.Steps, steps[i])
			}
			// Recompute cumulative arrivals along this specific path.
			cum := a.fArr[k].T
			for i := 1; i < len(p.Steps); i++ {
				cum += p.Steps[i].Delay
				p.Steps[i].Arrival = cum
			}
			out = append(out, p)
			return
		}
		for _, in := range a.inEdgesLate(fr.v, fr.rf) {
			ku := ix4(in.v, in.rf, late)
			if !a.fValid[ku] {
				continue
			}
			total := a.fArr[ku].T + in.delay + fr.suffix
			if total < floor-1e-9 {
				continue
			}
			st := PathStep{
				Name: a.vname(fr.v), RF: fr.rf, Delay: in.delay,
				IsCell: in.cell, Slew: a.fSlew[k],
				vid: fr.v, arc: in.arc,
			}
			if vv := a.verts[fr.v]; vv.pin != nil {
				st.Cell = vv.pin.Cell
				if !in.cell {
					st.Net = vv.pin.Net
				}
			} else if vv.port != nil && !in.cell {
				st.Net = vv.port.Net
			}
			steps = append(steps, st)
			dfs(frame{v: in.v, rf: in.rf, suffix: fr.suffix + in.delay})
			steps = steps[:len(steps)-1]
			if len(out) >= maxPaths {
				return
			}
		}
	}
	dfs(frame{v: endV, rf: e.RF})
	sort.SliceStable(out, func(i, j int) bool { return out[i].GBASlack < out[j].GBASlack })
	if len(out) > maxPaths {
		out = out[:maxPaths]
	}
	return out
}

// inEdge is one timing edge into a vertex with its late delay.
type inEdge struct {
	v, rf int
	delay float64
	cell  bool
	arc   *liberty.TimingArc
}

// inEdgesLate enumerates the in-edges of vertex i for output transition rf
// at the delays the forward late pass charged them (netEdgeDelay, arcDelay),
// ordered by decreasing (source arrival + delay).
func (a *Analyzer) inEdgesLate(i, rf int) []inEdge {
	var out []inEdge
	if a.topo.kind[i] == vkOutPin {
		nd := a.vnd[i]
		for _, ar := range a.arcs[a.arcOff[i]:a.arcOff[i+1]] {
			fv := int(ar.other)
			for _, rfIn := range inTransitions(ar.arc.Sense, rf) {
				if !a.fValid[ix4(fv, rfIn, late)] {
					continue
				}
				d := a.lateArcDelay(ar.arc, fv, rfIn, rf, nd)
				out = append(out, inEdge{v: fv, rf: rfIn, delay: d, cell: true, arc: ar.arc})
			}
		}
	} else if src := int(a.topo.faninDriver[i]); src >= 0 {
		// Input pin or output port: the one net edge from its driver.
		out = append(out, inEdge{v: src, rf: rf, delay: a.netEdgeDelay(src, i, rf, late)})
	}
	sort.SliceStable(out, func(x, y int) bool {
		ax := a.fArr[ix4(out[x].v, out[x].rf, late)].T + out[x].delay
		ay := a.fArr[ix4(out[y].v, out[y].rf, late)].T + out[y].delay
		return ax > ay
	})
	return out
}

// inTransitions inverts senseOuts: which input transitions produce the
// given output transition through an arc's sense.
func inTransitions(s liberty.ArcSense, rfOut int) []int {
	switch s {
	case liberty.PositiveUnate:
		return []int{rfOut}
	case liberty.NegativeUnate:
		return []int{1 - rfOut}
	default:
		return []int{rise, fall}
	}
}
