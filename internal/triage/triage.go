// Package triage turns resident multi-scenario timing analysis into
// clustered root-cause reports — the timing debug relation graph of
// MCMM signoff. The paper's closing argument is that at modern corner
// counts the bottleneck is no longer computing slack but explaining it:
// hundreds of violations across dozens of scenarios usually trace back to
// a handful of physical causes. The package extracts each violation's
// critical-path segments (reusing the k-worst PBA machinery in
// internal/sta), links violations across scenarios and endpoints by
// shared segments, common launch-capture clock pairs and common derate
// class, and reports the connected components ranked by summed TNS.
//
// Scenario-dominance pruning (mcmm's dominance rule) cuts the extraction
// bill: when a sibling corner provably bounds an endpoint worse —
// identical delay configuration (library, BEOL scaling, derates, SI,
// MIS), uniformly tighter period and uncertainty — the dominated corner's
// path extraction is skipped and the dominator's segments are inherited.
// The skipped corner's slacks are still its own (they come from its
// resident analyzer, one array pass), so pruning changes which endpoints
// get the expensive k-worst path walk, never a reported number. Every
// prune decision is recorded so the report stays auditable.
package triage

import (
	"fmt"
	"reflect"
	"strings"

	"newgame/internal/core"
	"newgame/internal/mcmm"
	"newgame/internal/netlist"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// Options bounds the per-violation path extraction.
type Options struct {
	// K is the maximum number of worst paths enumerated per violating
	// setup endpoint (default 3). Hold extraction always uses the single
	// worst path.
	K int
	// Window is the arrival window (ps) for the k-worst setup enumeration
	// (default 10).
	Window units.Ps
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 3
	}
	if o.Window <= 0 {
		o.Window = 10
	}
	return o
}

// PruneRecord is the audit trail of one scenario-dominance decision: for
// the named check kind, every endpoint of Scenario is provably bounded
// worse by DominatedBy, so Scenario's path extraction was skipped.
type PruneRecord struct {
	Scenario    string `json:"scenario"`
	Kind        string `json:"kind"`
	DominatedBy string `json:"dominated_by"`
	// Reason spells the proof obligation out: the delay configurations are
	// identical and the dominator's period/uncertainty bound is uniformly
	// at least as tight.
	Reason string `json:"reason"`
}

// Plan is the dominance-pruning schedule for one recipe: per scenario and
// check kind, either "analyze directly" (-1) or the index of the sibling
// whose extraction provably covers it. A Plan is a pure function of the
// FULL recipe, so every node of a sharded cluster computes the same one.
type Plan struct {
	Names []string
	// SetupActive/HoldActive mirror each scenario's ForSetup/ForHold: a
	// scenario only contributes violations for the checks it signs off.
	SetupActive []bool
	HoldActive  []bool
	// SetupDominator/HoldDominator give, per scenario, the index of the
	// sibling whose extraction provably covers it, or -1 when the
	// scenario's checks are analyzed directly.
	SetupDominator []int
	HoldDominator  []int
	Prunes         []PruneRecord
}

// delayIdentical reports whether two scenarios produce bit-identical
// arrival/slew/predecessor state: same library and BEOL scaling (pointer
// identity — recipes share corner objects), same derate model (deep
// equality; AOCV carries table slices), same SI, MIS and IR switches.
// Period and uncertainty are deliberately excluded: they shift checks,
// not arrivals.
func delayIdentical(a, b core.Scenario) bool {
	return a.Lib == b.Lib && a.Scaling == b.Scaling &&
		reflect.DeepEqual(a.Derate, b.Derate) &&
		a.SI == b.SI && a.MIS == b.MIS && a.DynamicIR == b.DynamicIR
}

// PlanFor computes the dominance-pruning plan for a recipe's full
// scenario list with mcmm's dominance rule. Scenarios are of one delay
// class when they are delayIdentical; each dominated scenario gets its
// tightest dominator (smallest period, largest uncertainty, lowest
// index), which is itself undominated, so prune resolution never chases a
// chain.
func PlanFor(scenarios []core.Scenario, basePeriod units.Ps) Plan {
	p := Plan{
		Names:       make([]string, len(scenarios)),
		SetupActive: make([]bool, len(scenarios)),
		HoldActive:  make([]bool, len(scenarios)),
	}
	bs := make([]mcmm.Bound, len(scenarios))
	for i, sc := range scenarios {
		p.Names[i] = sc.Name
		p.SetupActive[i] = sc.ForSetup
		p.HoldActive[i] = sc.ForHold
		bs[i] = mcmm.Bound{Class: i, PeriodScale: sc.PeriodScale,
			SetupUncertainty: sc.SetupUncertainty, HoldUncertainty: sc.HoldUncertainty,
			ForSetup: sc.ForSetup, ForHold: sc.ForHold}
		for k := range i {
			if delayIdentical(scenarios[k], sc) {
				bs[i].Class = bs[k].Class
				break
			}
		}
	}
	p.SetupDominator, p.HoldDominator = mcmm.Dominators(bs)
	for j := range scenarios {
		if d := p.SetupDominator[j]; d >= 0 {
			p.Prunes = append(p.Prunes, PruneRecord{
				Scenario: scenarios[j].Name, Kind: "setup", DominatedBy: scenarios[d].Name,
				Reason: fmt.Sprintf("delay-identical; period %g <= %g ps; setup uncertainty %g >= %g ps",
					basePeriod*scenarios[d].PeriodScale, basePeriod*scenarios[j].PeriodScale,
					scenarios[d].SetupUncertainty, scenarios[j].SetupUncertainty),
			})
		}
		if d := p.HoldDominator[j]; d >= 0 {
			p.Prunes = append(p.Prunes, PruneRecord{
				Scenario: scenarios[j].Name, Kind: "hold", DominatedBy: scenarios[d].Name,
				Reason: fmt.Sprintf("delay-identical; hold uncertainty %g >= %g ps",
					scenarios[d].HoldUncertainty, scenarios[j].HoldUncertainty),
			})
		}
	}
	return p
}

// NoPrune returns the same plan with pruning disabled — every scenario
// analyzed directly. The dominance-prune-sound conformance law compares
// the two extractions.
func NoPrune(p Plan) Plan {
	out := Plan{Names: p.Names,
		SetupActive:    p.SetupActive,
		HoldActive:     p.HoldActive,
		SetupDominator: make([]int, len(p.Names)),
		HoldDominator:  make([]int, len(p.Names))}
	for i := range out.SetupDominator {
		out.SetupDominator[i] = -1
		out.HoldDominator[i] = -1
	}
	return out
}

// schedule reports whether scenario idx signs off the kind, and the sibling
// whose extraction covers it (-1: its own).
func (p Plan) schedule(idx int, kind sta.CheckKind) (active bool, dom int) {
	if kind == sta.Hold {
		return p.HoldActive[idx], p.HoldDominator[idx]
	}
	return p.SetupActive[idx], p.SetupDominator[idx]
}

// Violation is one violating (endpoint, scenario, kind) check with the
// relation-graph features extracted from its worst paths. For a pruned
// scenario, Slack is still the scenario's own (computed from its resident
// analyzer); only the path-derived fields (Segments, Depth, Pessimism,
// ClockPair) are inherited from the dominating sibling — whose paths are
// bit-identical, since dominance requires identical delay state.
type Violation struct {
	Scenario string   `json:"scenario"`
	Kind     string   `json:"kind"`
	Endpoint string   `json:"endpoint"`
	RF       string   `json:"rf"`
	Slack    units.Ps `json:"slack"`
	// Depth is the cell-stage depth of the worst path.
	Depth int `json:"depth"`
	// Pessimism is the PBA-recoverable arrival pessimism of the worst
	// path (GBA minus PBA arrival, oriented so positive = recoverable).
	Pessimism units.Ps `json:"pessimism"`
	// ClockPair is "launch>capture" — the path root (clock root or input
	// port) and the capture clock.
	ClockPair string `json:"clock_pair"`
	// DerateClass names the scenario's OCV model type.
	DerateClass string `json:"derate_class"`
	// Segments are the canonical segment keys of the k worst paths,
	// deduplicated in first-traversal order.
	Segments []string `json:"segments"`
	// PrunedBy names the dominating scenario whose extraction this
	// violation inherited ("" = extracted directly).
	PrunedBy string `json:"pruned_by,omitempty"`
}

// ScenarioExtract is one scenario's contribution to the relation graph —
// the unit a cluster worker ships to the coordinator.
type ScenarioExtract struct {
	Scenario   string        `json:"scenario"`
	Violations []Violation   `json:"violations"`
	Prunes     []PruneRecord `json:"prunes,omitempty"`
	// AnalyzedPairs counts (endpoint, kind) pairs that paid for path
	// extraction; PrunedPairs counts pairs skipped under dominance.
	AnalyzedPairs int `json:"analyzed_pairs"`
	PrunedPairs   int `json:"pruned_pairs"`
}

// DerateClassOf names a derate model's concrete type, the triage linking
// feature for "same OCV methodology" ("FlatOCV", "AOCV", "LVF", ...).
func DerateClassOf(d sta.Derater) string {
	if d == nil {
		return "none"
	}
	name := fmt.Sprintf("%T", d)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

func rfName(rf int) string {
	if rf == 0 {
		return "rise"
	}
	return "fall"
}

// endpointID identifies an endpoint across its transitions without building
// its name.
type endpointID struct {
	pin  *netlist.Pin
	port *netlist.Port
}

// segment identifies one edge of a timing path inside one sta.Topology: the
// vertices of its tail and head. Segments are the linking currency of
// cross-scenario triage — two violations that traverse the same segment
// share a physical root cause no matter which corner or endpoint surfaced
// them. Outside the analyzer a segment goes by its key, "from>to": stable
// across scenarios and analyzer instances because it is built from netlist
// names only.
type segment struct{ from, to int }

type segmentEntry struct {
	key    string
	listed int
}

// extraction is one Extract call: the graph whose table it reads and
// fills, the walker every violation's paths come from, and its counts.
type extraction struct {
	g       *Graph
	a       *sta.Analyzer
	w       *sta.PathWalker
	opts    Options
	capture string
	built   int64 // segment keys added to the table
	walked  int64 // paths the walker returned
}

// checkKinds is the order an extract lists its violations in.
var checkKinds = [...]sta.CheckKind{sta.Setup, sta.Hold}

// Extract computes scenario idx's violations against the resident analyzer
// w walks, honoring the plan: a kind dominated by a sibling skips path
// extraction and tags its violations PrunedBy for Report to resolve. The
// scenario's own slacks are always reported — pruning trades the
// per-endpoint k-worst path walk, not a number. What w returned before is
// invalid afterwards.
//
// The violations of every scenario and epoch share most of their segments,
// so the graph's table builds a segment's key once for as long as the
// analyzers' topology is the same value; a buffer inserted or removed
// derives a new one, and the table starts over.
func (g *Graph) Extract(w *sta.PathWalker, plan Plan, idx int, opts Options) ScenarioExtract {
	g = g.acquire()
	defer g.mu.Unlock()
	a := w.Analyzer()
	if t := a.Topology(); t != g.topo {
		g.topo = t
		clear(g.segments)
	}
	name := plan.Names[idx]
	out := ScenarioExtract{Scenario: name}
	derate := DerateClassOf(a.Cfg.Derate)
	x := extraction{g: g, a: a, w: w, opts: opts.withDefaults()}
	if a.Cons != nil {
		if clk := a.Cons.DefaultClock(); clk != nil {
			x.capture = clk.Name
		}
	}
	// The summaries count violating checks, one per transition: an upper
	// bound on the violations, which take each endpoint's worst only. A
	// clean scenario keeps the nil list the wire carries as null.
	total := 0
	for _, kind := range checkKinds {
		if active, _ := plan.schedule(idx, kind); active {
			total += a.Summary(kind).Violations
		}
	}
	if total > 0 {
		out.Violations = make([]Violation, 0, total)
	}
	for _, kind := range checkKinds {
		active, dom := plan.schedule(idx, kind)
		if !active {
			continue
		}
		clear(g.seen)
		a.EachEndpoint(kind, func(e sta.EndpointSlack) bool {
			if e.Slack >= 0 {
				return false // worst-first: the first met endpoint ends the violations
			}
			// Each endpoint's worst transition only.
			id := endpointID{e.Pin, e.Port}
			if g.seen[id] {
				return true
			}
			g.seen[id] = true
			v := Violation{
				Scenario: name, Kind: kind.String(), Endpoint: e.Name(),
				RF: rfName(e.RF), Slack: e.Slack, DerateClass: derate,
			}
			if dom >= 0 {
				v.PrunedBy = plan.Names[dom]
				out.PrunedPairs++
			} else {
				x.fillPathFeatures(&v, e)
				out.AnalyzedPairs++
			}
			out.Violations = append(out.Violations, v)
			return true
		})
	}
	for _, rec := range plan.Prunes {
		if rec.Scenario == name {
			out.Prunes = append(out.Prunes, rec)
		}
	}
	g.rec.Counter("triage.segment_keys_built").Add(x.built)
	g.rec.Counter("triage.paths_walked").Add(x.walked)
	return out
}

// ExtractScenario is Graph.Extract on a fresh graph and walker.
func ExtractScenario(a *sta.Analyzer, plan Plan, idx int, opts Options) ScenarioExtract {
	return NewGraph(nil).Extract(a.Walker(), plan, idx, opts)
}

// fillPathFeatures runs the expensive per-endpoint analysis: k-worst path
// enumeration (setup) or the worst path (hold), PBA re-timing of the
// worst path, and segment extraction across all enumerated paths.
func (x *extraction) fillPathFeatures(v *Violation, e sta.EndpointSlack) {
	var paths []sta.Path
	if e.Kind == sta.Setup {
		paths = x.w.Within(e, x.opts.Window, x.opts.K)
	}
	var one [1]sta.Path
	if len(paths) == 0 {
		one[0] = x.w.Worst(e)
		paths = one[:]
	}
	x.walked += int64(len(paths))
	worst := paths[0]
	v.Depth = worst.Depth()
	r := x.a.PBA(worst)
	// Raw arrival delta, not PBAResult.Pessimism: the delta is a pure
	// function of the (delay-identical) arrival state, so a dominated
	// sibling inheriting it is bit-exact; Pessimism re-derived from the
	// shifted slack would differ in the last ulp.
	if e.Kind == sta.Setup {
		v.Pessimism = r.GBAArrival - r.PBAArrival
	} else {
		v.Pessimism = r.PBAArrival - r.GBAArrival
	}
	launch := ""
	if len(worst.Steps) > 0 {
		launch = worst.Steps[0].Name
	}
	v.ClockPair = launch + ">" + x.capture
	g := x.g
	g.n++
	g.keys = g.keys[:0]
	for _, p := range paths {
		for i := 1; i < len(p.Steps); i++ {
			seg := segment{p.Steps[i-1].Vertex(), p.Steps[i].Vertex()}
			ent := g.segments[seg]
			if ent.listed == g.n {
				continue
			}
			if ent.key == "" {
				ent.key = p.Steps[i-1].Name + ">" + p.Steps[i].Name
				x.built++
			}
			ent.listed = g.n
			g.segments[seg] = ent
			g.keys = append(g.keys, ent.key)
		}
	}
	if len(g.keys) > 0 {
		v.Segments = append(make([]string, 0, len(g.keys)), g.keys...)
	}
}
