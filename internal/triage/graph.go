package triage

import (
	"sort"

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

// dsu is a deterministic union-find over violation indices.
type dsu []int

func newDSU(n int) dsu {
	d := make(dsu, n)
	for i := range d {
		d[i] = i
	}
	return d
}

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

// Clusters builds the relation graph over a flat violation list and
// returns its connected components, most-negative summed TNS first.
// Edges: two violations traversing a common path segment (the cross-
// endpoint link), and two violations of the same endpoint sharing a
// launch-capture clock pair or a derate class (the cross-scenario link).
// Every violation lands in exactly one cluster — the components partition
// the input.
func Clusters(vs []Violation) []Cluster {
	if len(vs) == 0 {
		return nil
	}
	d := newDSU(len(vs))
	// feature is one thing about an endpoint that links its violations: its
	// clock pair or its derate class.
	type feature struct {
		endpoint, value string
		ocv             bool
	}
	bySeg := map[string]int{}
	byEndpointFeature := map[feature]int{}
	for i, v := range vs {
		for _, seg := range v.Segments {
			if first, ok := bySeg[seg]; ok {
				d.union(first, i)
			} else {
				bySeg[seg] = i
			}
		}
		for _, feat := range [...]feature{
			{v.Endpoint, v.ClockPair, false},
			{v.Endpoint, v.DerateClass, true},
		} {
			if first, ok := byEndpointFeature[feat]; ok {
				d.union(first, i)
			} else {
				byEndpointFeature[feat] = i
			}
		}
	}

	byRoot := map[int][]int{}
	var roots []int
	for i := range vs {
		r := d.find(i)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}

	out := make([]Cluster, 0, len(roots))
	for _, r := range roots {
		members := byRoot[r]
		c := Cluster{Violations: make([]Violation, 0, len(members))}
		segCount := map[string]int{}
		scenTNS := map[string]units.Ps{}
		var scenOrder []string
		for _, i := range members {
			v := vs[i]
			c.Violations = append(c.Violations, v)
			c.TNS += v.Slack
			if len(c.Violations) == 1 || v.Slack < c.WorstSlack {
				c.WorstSlack = v.Slack
			}
			for _, seg := range v.Segments {
				segCount[seg]++
			}
			if _, ok := scenTNS[v.Scenario]; !ok {
				scenOrder = append(scenOrder, v.Scenario)
			}
			scenTNS[v.Scenario] += v.Slack
		}
		for seg, n := range segCount {
			best, bn := c.DominantSegment, segCount[c.DominantSegment]
			if best == "" || n > bn || (n == bn && seg < best) {
				c.DominantSegment = seg
			}
		}
		for _, s := range scenOrder {
			if c.DominantScenario == "" || scenTNS[s] < scenTNS[c.DominantScenario] {
				c.DominantScenario = s
			}
		}
		out = append(out, c)
	}

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TNS != out[j].TNS {
			return out[i].TNS < out[j].TNS
		}
		if out[i].WorstSlack != out[j].WorstSlack {
			return out[i].WorstSlack < out[j].WorstSlack
		}
		a, b := out[i].Violations[0], out[j].Violations[0]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Endpoint < b.Endpoint
	})
	for i := range out {
		out[i].ID = i + 1
	}
	return out
}

// BuildReport merges per-scenario extracts (in recipe order) into the
// clustered report. Pruned violations first inherit their path-derived
// features (segments, depth, pessimism, clock pair) from the dominating
// scenario's extraction of the same endpoint — bit-identical by the
// dominance proof obligation — then everything is clustered together.
// The merge is a pure function of the extracts, so a coordinator merging
// shard responses produces exactly the bytes a single node would.
func BuildReport(extracts []ScenarioExtract) Report {
	// check names one (scenario, kind, endpoint) check.
	type check struct{ scenario, kind, endpoint string }
	analyzed := map[check]*Violation{}
	total := 0
	for ei := range extracts {
		ex := &extracts[ei]
		total += len(ex.Violations)
		for vi := range ex.Violations {
			v := &ex.Violations[vi]
			if v.PrunedBy == "" {
				analyzed[check{v.Scenario, v.Kind, v.Endpoint}] = v
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
				if src, ok := analyzed[check{v.PrunedBy, v.Kind, v.Endpoint}]; ok {
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
	rep.Clusters = Clusters(all)
	return rep
}
