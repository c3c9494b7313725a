package sta

import (
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/units"
)

// PathWalker extracts timing paths from one analyzer's last Run/Update. It
// owns the storage a walk needs — the DFS step stack, the stacked in-edge
// lists and the steps of the paths it hands out — and keeps all of it
// between calls, so a caller that walks many endpoints allocates only while
// the walker is still growing to the longest path it has met.
//
// Whatever Worst, Within or WorstPaths returns (the paths and their Steps) is
// valid until the walker's next call. A walker is used by one goroutine at a
// time, and it stays valid across Run and Update of its analyzer, so a holder
// may keep one per analyzer and lend it to one render after another; a render
// that cannot have the kept one makes its own (Analyzer.Walker). The analyzer
// never holds one — readers share an analyzer concurrently.
type PathWalker struct {
	a     *Analyzer
	stack []PathStep // the path under construction, endpoint-first
	edges []inEdge   // in-edge lists of the vertices on the stack, back to back
	steps []PathStep // storage of the emitted paths' Steps
	paths []Path
	seen  []bool // by check site, all false between calls (WorstPaths)

	// The walk in progress (Within).
	e            EndpointSlack
	worst, floor float64
	max          int
}

// Walker returns a new path walker over a.
func (a *Analyzer) Walker() *PathWalker { return &PathWalker{a: a} }

// Analyzer returns the analyzer the walker walks.
func (w *PathWalker) Analyzer() *Analyzer { return w.a }

func (w *PathWalker) reset() {
	w.steps, w.paths = w.steps[:0], w.paths[:0]
}

// take hands out room for one path of n steps. Paths handed out earlier keep
// the chunk they were cut from, so growing never copies.
func (w *PathWalker) take(n int) []PathStep {
	if cap(w.steps)-len(w.steps) < n {
		w.steps = make([]PathStep, 0, max(n, 2*cap(w.steps)))
	}
	lo := len(w.steps)
	w.steps = w.steps[:lo+n]
	return w.steps[lo : lo+n : lo+n]
}

// Worst extracts the GBA worst path into the endpoint of e.
func (w *PathWalker) Worst(e EndpointSlack) Path {
	w.reset()
	return w.worstPath(e)
}

// WorstPaths returns the worst path for each of the n worst endpoints of the
// check (one per endpoint, sorted worst-first). The steps of all n are cut
// from one slab, grown once to the total the lot needs.
func (w *PathWalker) WorstPaths(kind CheckKind, n int) []Path {
	w.reset()
	a := w.a
	slacks := a.resident(kind)
	n = min(n, len(slacks))
	if n <= 0 {
		return nil
	}
	w.seen = resize(w.seen, len(a.sites))
	if cap(w.paths) < n {
		w.paths = make([]Path, 0, n)
	}
	total := 0
	for _, e := range slacks {
		if len(w.paths) >= n {
			break
		}
		if w.seen[e.site] {
			continue
		}
		w.seen[e.site] = true
		w.paths = append(w.paths, Path{Endpoint: e})
		total += a.chainLen(e)
	}
	if cap(w.steps) < total {
		w.steps = make([]PathStep, 0, total)
	}
	for i := range w.paths {
		w.seen[w.paths[i].Endpoint.site] = false
		w.paths[i] = w.worstPath(w.paths[i].Endpoint)
	}
	return w.paths
}

// chainLen is the number of steps on e's worst path: the length of the
// predecessor chain from its endpoint vertex.
func (a *Analyzer) chainLen(e EndpointSlack) int {
	el := e.Kind.side()
	n := 0
	for i, rf := a.endpointVertex(e), e.RF; i >= 0 && *a.fValid.at(ix4(i, rf, el)); n++ {
		i, rf = a.fPred.at(ix4(i, rf, el)).source()
	}
	return n
}

// worstPath walks e's predecessor chain once for its length and again
// filling Steps back to front, so the root-first result is sized exactly.
// Each step's Delay is the delay rule's answer for the edge its predecessor
// names (edgeDelay).
func (w *PathWalker) worstPath(e EndpointSlack) Path {
	a := w.a
	el := e.Kind.side()
	p := Path{Endpoint: e, GBASlack: e.Slack, Steps: w.take(a.chainLen(e))}
	for i, rf, k := a.endpointVertex(e), e.RF, len(p.Steps)-1; k >= 0; k-- {
		kk := ix4(i, rf, el)
		pr := *a.fPred.at(kk)
		src, srcRF := pr.source()
		st := PathStep{
			Name:    a.vname(i),
			RF:      rf,
			Delay:   a.edgeDelay(pr, i, rf, el),
			IsCell:  pr.cell(),
			Arrival: a.fArr.at(kk).T,
			Slew:    *a.fSlew.at(kk),
			vid:     i,
		}
		if st.IsCell {
			st.arc = a.arcOf(i, pr.arc)
		}
		st.Cell, st.Net = a.stepOwner(i, !st.IsCell && src >= 0)
		p.Steps[k] = st
		i, rf = src, srcRF
	}
	return p
}

// stepOwner returns the cell owning vertex i (nil for a port) and, when the
// edge into it is a wire, the net that edge traverses.
func (a *Analyzer) stepOwner(i int, wire bool) (c *netlist.Cell, n *netlist.Net) {
	if p, q := a.vertex(a.topo.cellOf, i); p != nil {
		c, n = p.Cell, p.Net
	} else {
		n = q.Net
	}
	if !wire {
		n = nil
	}
	return c, n
}

// Within enumerates the distinct late paths into an endpoint whose arrival
// is within `window` ps of the endpoint's worst arrival — the report_timing
// -slack_lesser_than view a closure engineer works from (the worst path
// alone under-reports how much logic needs fixing). Paths are returned
// worst-first, at most maxPaths of them. Only setup (late) endpoints are
// supported; arrivals are mean-based under statistical deraters.
func (w *PathWalker) Within(e EndpointSlack, window units.Ps, maxPaths int) []Path {
	w.reset()
	if e.Kind != Setup || maxPaths <= 0 {
		return nil
	}
	a := w.a
	endV := a.endpointVertex(e)
	if endV < 0 || !*a.fValid.at(ix4(endV, e.RF, late)) {
		return nil
	}
	w.e, w.max = e, maxPaths
	w.worst = a.fArr.at(ix4(endV, e.RF, late)).T
	w.floor = w.worst - window
	w.descend(endV, e.RF, 0)
	// The walk leans worst-first; a stable insertion sort over the at most
	// maxPaths results restores the exact order.
	ps := w.paths
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].GBASlack < ps[j-1].GBASlack; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	if len(ps) == 0 {
		return nil
	}
	return ps
}

// descend is the backward DFS enumerating suffix arrivals: the partial path
// from the endpoint back to vertex (v, rf) sits on the stack and has
// accumulated delay `suffix`; its best possible total arrival is
// arr(v) + suffix, prunable against floor. In-edges are explored in
// decreasing contribution order.
func (w *PathWalker) descend(v, rf int, suffix float64) {
	a := w.a
	k := ix4(v, rf, late)
	if src, _ := a.fPred.at(k).source(); src < 0 || !*a.fValid.at(k) {
		w.emit(v, rf, suffix)
		return
	}
	lo := len(w.edges)
	w.pushInEdges(v, rf)
	// Deeper levels append behind hi and cut back to it; they may move
	// w.edges, so this level's list is read by index.
	for i, hi := lo, len(w.edges); i < hi && len(w.paths) < w.max; i++ {
		in := w.edges[i]
		if in.at+suffix < w.floor-1e-9 {
			continue
		}
		st := PathStep{
			Name: a.vname(v), RF: rf, Delay: in.delay,
			IsCell: in.cell, Slew: *a.fSlew.at(k),
			vid: v, arc: in.arc,
		}
		st.Cell, st.Net = a.stepOwner(v, !in.cell)
		w.stack = append(w.stack, st)
		w.descend(in.v, in.rf, suffix+in.delay)
		w.stack = w.stack[:len(w.stack)-1]
	}
	w.edges = w.edges[:lo]
}

// emit records the path the stack spells out, rooted at source (v, rf).
func (w *PathWalker) emit(v, rf int, suffix float64) {
	a := w.a
	k := ix4(v, rf, late)
	root := a.fArr.at(k).T
	p := Path{
		Endpoint: w.e,
		GBASlack: w.e.Slack + (w.worst - (root + suffix)),
		Steps:    w.take(len(w.stack) + 1),
	}
	p.Steps[0] = PathStep{Name: a.vname(v), RF: rf, Arrival: root, Slew: *a.fSlew.at(k), vid: v}
	// The stack is endpoint-first; arrivals are re-accumulated along this
	// specific path.
	cum := root
	for i := 1; i < len(p.Steps); i++ {
		st := w.stack[len(w.stack)-i]
		cum += st.Delay
		st.Arrival = cum
		p.Steps[i] = st
	}
	w.paths = append(w.paths, p)
}

// inEdge is one timing edge into a vertex with its late delay.
type inEdge struct {
	v, rf int
	delay float64
	at    float64 // source arrival + delay: the edge's contribution
	cell  bool
	arc   *liberty.TimingArc
}

// pushInEdges appends the valid in-edges of vertex i for output transition
// rf to w.edges, at the delays the forward late pass charged them
// (netEdgeDelay, arcDelay), ordered by decreasing contribution. Edges of
// equal contribution keep enumeration order (arc order, then rise before
// fall): a vertex has a handful of in-edges, so the order is made by a
// stable insertion as each is pushed.
func (w *PathWalker) pushInEdges(i, rf int) {
	a := w.a
	lo := len(w.edges)
	push := func(in inEdge) {
		in.at = a.fArr.at(ix4(in.v, in.rf, late)).T + in.delay
		w.edges = append(w.edges, in)
		for j := len(w.edges) - 1; j > lo && w.edges[j].at > w.edges[j-1].at; j-- {
			w.edges[j], w.edges[j-1] = w.edges[j-1], w.edges[j]
		}
	}
	if a.topo.kind[i] == vkOutPin {
		nd, m := a.vnet(i), a.masters[a.topo.cellOf[i]]
		for _, ar := range a.group(i) {
			fv, arc := int(ar.other), &m.Arcs[ar.arc]
			first, last := inTransitions(arc.Sense, rf)
			for rfIn := first; rfIn <= last; rfIn++ {
				if *a.fValid.at(ix4(fv, rfIn, late)) {
					push(inEdge{v: fv, rf: rfIn, delay: a.mergedArcDelay(arc, fv, rfIn, rf, late, nd), cell: true, arc: arc})
				}
			}
		}
	} else if src := int(a.topo.faninDriver[i]); src >= 0 && *a.fValid.at(ix4(src, rf, late)) {
		// Input pin or output port: the one net edge from its driver.
		push(inEdge{v: src, rf: rf, delay: a.netEdgeDelay(src, i, rf, late)})
	}
}

// inTransitions inverts senseOuts: the inclusive range of input transitions
// that produce the given output transition through an arc's sense.
func inTransitions(s liberty.ArcSense, rfOut int) (first, last int) {
	switch s {
	case liberty.PositiveUnate:
		return rfOut, rfOut
	case liberty.NegativeUnate:
		return 1 - rfOut, 1 - rfOut
	default:
		return rise, fall
	}
}
