package sta

import (
	"math"
	"strings"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/units"
)

// PathStep is one vertex on a timing path.
type PathStep struct {
	// Name is the pin or port name.
	Name string
	// RF is the transition at this step.
	RF int
	// Delay is the (derated, GBA) delay of the edge into this step; 0 at
	// the path root.
	Delay units.Ps
	// IsCell marks cell-arc edges (vs wire edges).
	IsCell bool
	// Arrival is the cumulative GBA arrival at this step.
	Arrival units.Ps
	// Slew is the GBA (merged-worst) slew at this step.
	Slew units.Ps
	// Cell is the owning cell for pin steps (nil for ports).
	Cell *netlist.Cell
	// Net is the net traversed into this step for wire edges (nil for
	// cell-arc steps and the root).
	Net *netlist.Net

	vid int
	arc *liberty.TimingArc
}

// Vertex returns the step's vertex number in the analyzer that produced the
// path: an identity for the pin or port that costs no name, good for as long
// as that analyzer's graph stands.
func (s PathStep) Vertex() int { return s.vid }

// Path is an extracted worst path to an endpoint.
type Path struct {
	Endpoint EndpointSlack
	// Steps run root-first (launch clock root or input port → endpoint).
	Steps []PathStep
	// GBASlack echoes the endpoint slack this path explains.
	GBASlack units.Ps
}

// String renders a compact path report line.
func (p Path) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(s.Name)
	}
	return b.String()
}

// Depth returns the number of cell-arc stages on the path.
func (p Path) Depth() int {
	n := 0
	for _, s := range p.Steps {
		if s.IsCell {
			n++
		}
	}
	return n
}

// endpointVertex returns the vertex e's check sits at, or -1.
func (a *Analyzer) endpointVertex(e EndpointSlack) int {
	if e.Pin != nil {
		return a.pinVertex(e.Pin)
	}
	return a.portVertex(e.Port)
}

// WorstPath extracts the GBA worst path into the endpoint of e: a walker
// used once, so the path is the caller's to keep.
func (a *Analyzer) WorstPath(e EndpointSlack) Path { return a.Walker().Worst(e) }

// PathsWithin is PathWalker.Within on a walker used once, so the paths are
// the caller's to keep.
func (a *Analyzer) PathsWithin(e EndpointSlack, window units.Ps, maxPaths int) []Path {
	return a.Walker().Within(e, window, maxPaths)
}

// WorstPaths is PathWalker.WorstPaths on a walker used once, so the paths
// are the caller's to keep; their steps share one slab of exactly the size
// they need.
func (a *Analyzer) WorstPaths(kind CheckKind, n int) []Path { return a.Walker().WorstPaths(kind, n) }

// PBAResult is a path re-timed with path-specific slews, depths and sigmas.
type PBAResult struct {
	Path Path
	// GBAArrival/PBAArrival are the endpoint data arrivals (sigma-adjusted)
	// under graph-based and path-based propagation.
	GBAArrival, PBAArrival units.Ps
	// Slack is the endpoint slack after pessimism removal.
	Slack units.Ps
	// Pessimism = Slack − GBA slack (≥ 0 in the common case).
	Pessimism units.Ps
}

// PBA re-times a path with path-based analysis: actual slews propagated
// along this path only (GBA merges the worst slew from *any* path into each
// pin), the path's true stage depth for AOCV, and a path-specific sigma
// accumulation. This is the pessimism-reduction mechanism of paper §1.3
// ("the need to use STA with path-based analysis"), bought at the cost of
// per-path recomputation — the runtime overhead measured in experiment E11.
func (a *Analyzer) PBA(p Path) PBAResult {
	el := p.Endpoint.Kind.side()
	lateSide := el == late
	n := a.Cfg.Derate.NSigma()
	if len(p.Steps) == 0 {
		return PBAResult{Path: p, Slack: p.GBASlack}
	}
	// Re-propagate along the chain.
	root := p.Steps[0]
	kr := ix4(root.vid, root.RF, el)
	t := a.fArr.at(kr).T // seed arrival (port)
	slew := *a.fSlew.at(kr)
	variance := 0.0
	depth := 0
	for k := 1; k < len(p.Steps); k++ {
		st := &p.Steps[k]
		if !st.IsCell {
			// Wire edge: delay independent of slew; reuse GBA delay and
			// degrade slew along this path only.
			t += st.Delay
			ws := a.vnet(st.vid).sinkSlew(int(a.topo.faninSink[st.vid]))
			slew = math.Sqrt(slew*slew + ws*ws)
			continue
		}
		depth++
		arc := st.arc
		outRise := st.RF == rise
		load := a.vnet(st.vid).totalCap[el]
		d := a.arcDelay(arc, p.Steps[k-1].vid, outRise, el, slew, depth, load)
		sg := a.Cfg.Derate.Sigma(arc, outRise, lateSide, slew, load, d)
		variance += sg * sg
		t += d
		slew = arc.Slew(outRise, slew, load)
	}
	pba := timeVar{T: t, Var: variance}.corner(lateSide, n)
	gba := p.Endpoint.Arrival
	res := PBAResult{Path: p, GBAArrival: gba, PBAArrival: pba}
	if p.Endpoint.Kind == Setup {
		res.Slack = p.GBASlack + (gba - pba)
	} else {
		res.Slack = p.GBASlack + (pba - gba)
	}
	res.Pessimism = res.Slack - p.GBASlack
	return res
}
