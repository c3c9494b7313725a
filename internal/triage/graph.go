package triage

import (
	"slices"
	"sync"

	"newgame/internal/obs"
	"newgame/internal/pack/wire"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// Cluster is one connected component of the relation graph: a set of
// violations that share a plausible physical root cause, ranked by the
// total negative slack it explains.
type Cluster struct {
	ID int `json:"id"`
	// TNS is the summed slack of the member violations (negative).
	TNS units.Ps `json:"tns"`
	// WorstSlack is the most negative member slack.
	WorstSlack units.Ps `json:"worst_slack"`
	// DominantSegment is the path segment traversed by the most member
	// violations (ties broken lexicographically) — the first place to
	// look when debugging the cluster.
	DominantSegment string `json:"dominant_segment"`
	// DominantScenario is the member scenario contributing the most
	// negative summed slack.
	DominantScenario string      `json:"dominant_scenario"`
	Violations       []Violation `json:"violations"`
}

// Stats summarizes a triage sweep, including how much work dominance
// pruning avoided.
type Stats struct {
	Scenarios  int `json:"scenarios"`
	Violations int `json:"violations"`
	// AnalyzedPairs is the number of violating (endpoint, scenario, kind)
	// pairs that underwent k-worst path extraction; PrunedPairs were
	// skipped under scenario dominance.
	AnalyzedPairs int `json:"analyzed_pairs"`
	PrunedPairs   int `json:"pruned_pairs"`
}

// Report is the full triage result: the clustered relation graph plus the
// audit trail of every pruning decision.
type Report struct {
	Clusters []Cluster     `json:"clusters"`
	Stats    Stats         `json:"stats"`
	Prunes   []PruneRecord `json:"prunes,omitempty"`
}

// Graph is the workspace of triage renders, kept between them so that a
// render allocates its answer and not its scratch. It holds the segment-key
// table — per segment of the analyzers' shared sta.Topology, its "from>to"
// key, built the first time any scenario's extraction meets the segment and
// kept across calls and epochs until the topology is another — and the
// maps and arrays the merge and the extract codec clear and reuse.
//
// A Graph is safe for concurrent use. A call that finds it busy runs on a
// fresh one instead of waiting: same answer, its own scratch.
type Graph struct {
	rec *obs.Recorder
	mu  sync.Mutex

	// The segment-key table (Extract). listed numbers the last violation
	// that listed the segment; n counts the violations featured, across
	// calls, so a number is never reused while the table stands.
	topo     *sta.Topology
	segments map[segment]segmentEntry
	n        int
	keys     []string // the violation in hand's keys, first-traversal order
	seen     map[endpointID]bool

	// The merge's scratch (Report).
	analyzed  map[check]*Violation
	segID     map[string]int
	byFeature map[feature]int
	scenID    map[string]int
	parent    dsu
	comp      []int // violation -> component, numbered by first member
	dest      []int // violation -> its place in component order
	start     []int // component -> first place, then one past its last
	segs      []segStat
	scens     []scenStat
	order     []int // a component's scenarios, first-appearance order
	bestN     []int // component -> its dominant segment's count

	// The extract reply's string table and the writers it and the body are
	// encoded on (EncodeExtracts).
	strID      map[string]uint32
	strs       []string
	head, body wire.Writer
}

// NewGraph returns an empty workspace. rec, when non-nil, counts the keys
// the table builds (triage.segment_keys_built) and the paths extraction
// walks (triage.paths_walked).
func NewGraph(rec *obs.Recorder) *Graph {
	return &Graph{
		rec:       rec,
		segments:  map[segment]segmentEntry{},
		seen:      map[endpointID]bool{},
		analyzed:  map[check]*Violation{},
		segID:     map[string]int{},
		byFeature: map[feature]int{},
		scenID:    map[string]int{},
		strID:     map[string]uint32{},
	}
}

// acquire returns g locked for the caller or, when another call holds g, a
// fresh Graph nobody else sees, locked alike: the caller unlocks what it
// got.
func (g *Graph) acquire() *Graph {
	if g.mu.TryLock() {
		return g
	}
	f := NewGraph(g.rec)
	f.mu.Lock()
	return f
}

// check names one (scenario, kind, endpoint) check.
type check struct{ scenario, kind, endpoint string }

// feature is one thing about an endpoint that links its violations: its
// clock pair or its derate class.
type feature struct {
	endpoint, value string
	ocv             bool
}

// segStat is one distinct segment key of a merge: the first violation that
// lists it and how many times the violations list it.
type segStat struct {
	key      string
	first, n int
}

// scenStat is one distinct scenario of a merge: its summed slack in the
// component at hand, which it last appeared in.
type scenStat struct {
	name string
	tns  units.Ps
	comp int
}

// dsu is a deterministic union-find over violation indices.
type dsu []int

func (d dsu) find(i int) int {
	for d[i] != i {
		d[i] = d[d[i]]
		i = d[i]
	}
	return i
}

func (d dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	// Attach the later root under the earlier one so component roots are
	// always each component's first violation — order-stable.
	if ra > rb {
		ra, rb = rb, ra
	}
	d[rb] = ra
}

// clusters builds the relation graph over a flat violation list and returns
// its connected components, most-negative summed TNS first. Edges: two
// violations traversing a common path segment (the cross-endpoint link),
// and two violations of the same endpoint sharing a launch-capture clock
// pair or a derate class (the cross-scenario link). Every violation lands
// in exactly one cluster — the components partition the input: vs is
// reordered in place so that each component's members lie together, in
// input order, and each cluster's Violations is its stretch of vs.
func (g *Graph) clusters(vs []Violation) []Cluster {
	if len(vs) == 0 {
		return nil
	}
	defer clear(g.segID)
	defer clear(g.byFeature)
	defer clear(g.scenID)
	n := len(vs)
	g.parent = slices.Grow(g.parent[:0], n)[:n]
	d := g.parent
	for i := range d {
		d[i] = i
	}
	g.segs = g.segs[:0]
	for i := range vs {
		v := &vs[i]
		for _, seg := range v.Segments {
			id, ok := g.segID[seg]
			if ok {
				d.union(g.segs[id].first, i)
			} else {
				id = len(g.segs)
				g.segID[seg] = id
				g.segs = append(g.segs, segStat{key: seg, first: i})
			}
			g.segs[id].n++
		}
		for _, feat := range [...]feature{
			{v.Endpoint, v.ClockPair, false},
			{v.Endpoint, v.DerateClass, true},
		} {
			if first, ok := g.byFeature[feat]; ok {
				d.union(first, i)
			} else {
				g.byFeature[feat] = i
			}
		}
	}

	// Number the components by first member (each one's root) and count
	// them, then lay the members out component by component.
	g.comp = slices.Grow(g.comp[:0], n)[:n]
	g.start = g.start[:0]
	for i := range vs {
		if r := d.find(i); r == i {
			g.comp[i] = len(g.start)
			g.start = append(g.start, 0)
		} else {
			g.comp[i] = g.comp[r]
		}
		g.start[g.comp[i]]++
	}
	nc := len(g.start)
	at := 0
	for c, size := range g.start {
		g.start[c] = at
		at += size
	}
	g.dest = slices.Grow(g.dest[:0], n)[:n]
	for i, c := range g.comp {
		g.dest[i] = g.start[c]
		g.start[c]++
	}
	for i := range vs {
		for j := g.dest[i]; j != i; j = g.dest[i] {
			vs[i], vs[j] = vs[j], vs[i]
			g.dest[i], g.dest[j] = g.dest[j], j
		}
	}

	// start[c] is now one past component c's last member.
	out := make([]Cluster, nc)
	lo := 0
	g.scens = g.scens[:0]
	for c := range out {
		cl := &out[c]
		cl.Violations = vs[lo:g.start[c]:g.start[c]]
		lo = g.start[c]
		order := g.order[:0]
		for k := range cl.Violations {
			v := &cl.Violations[k]
			cl.TNS += v.Slack
			if k == 0 || v.Slack < cl.WorstSlack {
				cl.WorstSlack = v.Slack
			}
			id, ok := g.scenID[v.Scenario]
			if !ok {
				id = len(g.scens)
				g.scenID[v.Scenario] = id
				g.scens = append(g.scens, scenStat{name: v.Scenario, comp: -1})
			}
			s := &g.scens[id]
			if s.comp != c {
				s.comp, s.tns = c, 0
				order = append(order, id)
			}
			s.tns += v.Slack
		}
		dom := -1
		for _, id := range order {
			if cl.DominantScenario == "" || g.scens[id].tns < g.scens[dom].tns {
				cl.DominantScenario, dom = g.scens[id].name, id
			}
		}
		g.order = order
	}
	// A segment's violations all share its component, so counting them
	// across the whole list counts them within it.
	g.bestN = slices.Grow(g.bestN[:0], nc)[:nc]
	clear(g.bestN)
	for _, s := range g.segs {
		c := g.comp[s.first]
		cl := &out[c]
		if cl.DominantSegment == "" || s.n > g.bestN[c] || (s.n == g.bestN[c] && s.key < cl.DominantSegment) {
			cl.DominantSegment, g.bestN[c] = s.key, s.n
		}
	}

	slices.SortStableFunc(out, func(a, b Cluster) int {
		switch {
		case ranksBefore(&a, &b):
			return -1
		case ranksBefore(&b, &a):
			return 1
		}
		return 0
	})
	for i := range out {
		out[i].ID = i + 1
	}
	return out
}

// ranksBefore orders clusters by TNS, then worst slack, then their first
// member's scenario, kind and endpoint.
func ranksBefore(a, b *Cluster) bool {
	if a.TNS != b.TNS {
		return a.TNS < b.TNS
	}
	if a.WorstSlack != b.WorstSlack {
		return a.WorstSlack < b.WorstSlack
	}
	x, y := &a.Violations[0], &b.Violations[0]
	if x.Scenario != y.Scenario {
		return x.Scenario < y.Scenario
	}
	if x.Kind != y.Kind {
		return x.Kind < y.Kind
	}
	return x.Endpoint < y.Endpoint
}

// Report merges per-scenario extracts (in recipe order) into the clustered
// report. Pruned violations first inherit their path-derived features
// (segments, depth, pessimism, clock pair) from the dominating scenario's
// extraction of the same endpoint — bit-identical by the dominance proof
// obligation — then everything is clustered together. The merge is a pure
// function of the extracts, so a coordinator merging shard responses
// produces exactly the bytes a single node would.
func (g *Graph) Report(extracts []ScenarioExtract) Report {
	g = g.acquire()
	defer g.mu.Unlock()
	defer clear(g.analyzed)
	total := 0
	for ei := range extracts {
		ex := &extracts[ei]
		total += len(ex.Violations)
		for vi := range ex.Violations {
			v := &ex.Violations[vi]
			if v.PrunedBy == "" {
				g.analyzed[check{v.Scenario, v.Kind, v.Endpoint}] = v
			}
		}
	}

	var rep Report
	rep.Stats.Scenarios = len(extracts)
	all := make([]Violation, 0, total)
	for _, ex := range extracts {
		rep.Stats.AnalyzedPairs += ex.AnalyzedPairs
		rep.Stats.PrunedPairs += ex.PrunedPairs
		rep.Prunes = append(rep.Prunes, ex.Prunes...)
		for _, v := range ex.Violations {
			if v.PrunedBy != "" {
				// The dominator is uniformly tighter, so it violates at
				// every endpoint the dominated scenario does; a missing
				// entry (hostile input) just leaves the features empty.
				if src, ok := g.analyzed[check{v.PrunedBy, v.Kind, v.Endpoint}]; ok {
					v.Segments = src.Segments
					v.Depth = src.Depth
					v.Pessimism = src.Pessimism
					v.ClockPair = src.ClockPair
				}
			}
			all = append(all, v)
		}
	}
	rep.Stats.Violations = len(all)
	rep.Clusters = g.clusters(all)
	return rep
}

// BuildReport is Graph.Report on a fresh graph.
func BuildReport(extracts []ScenarioExtract) Report { return NewGraph(nil).Report(extracts) }
