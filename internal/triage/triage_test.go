package triage

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// planScenarios builds a recipe skeleton for plan-only tests: dominance
// never dereferences the library, so a shared dummy pointer suffices.
func planScenarios() []core.Scenario {
	lib := &liberty.Library{Name: "dummy"}
	flat := sta.DefaultFlatOCV()
	return []core.Scenario{
		{Name: "func_tight", Lib: lib, PeriodScale: 1, Derate: flat,
			ForSetup: true, SetupUncertainty: 25},
		{Name: "func_loose", Lib: lib, PeriodScale: 1, Derate: flat,
			ForSetup: true, SetupUncertainty: 10},
		{Name: "hold_tight", Lib: lib, PeriodScale: 1, Derate: flat,
			ForHold: true, HoldUncertainty: 15},
		{Name: "hold_loose", Lib: lib, PeriodScale: 1, Derate: flat,
			ForHold: true, HoldUncertainty: 5},
	}
}

func TestPlanForDominance(t *testing.T) {
	p := PlanFor(planScenarios(), 560)
	if got, want := p.SetupDominator, []int{-1, 0, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("setup dominators %v, want %v", got, want)
	}
	if got, want := p.HoldDominator, []int{-1, -1, -1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hold dominators %v, want %v", got, want)
	}
	if len(p.Prunes) != 2 {
		t.Fatalf("prune records %v, want 2", p.Prunes)
	}
	for _, rec := range p.Prunes {
		if rec.Reason == "" || rec.DominatedBy == "" {
			t.Fatalf("prune record missing audit fields: %+v", rec)
		}
	}
	// The chosen dominators must themselves be unpruned, so resolution
	// never chases a chain.
	for _, d := range p.SetupDominator {
		if d >= 0 && p.SetupDominator[d] != -1 {
			t.Fatalf("setup dominator %d is itself pruned", d)
		}
	}
	for _, d := range p.HoldDominator {
		if d >= 0 && p.HoldDominator[d] != -1 {
			t.Fatalf("hold dominator %d is itself pruned", d)
		}
	}
}

func TestPlanForRespectsDelayIdentity(t *testing.T) {
	s := planScenarios()
	s[1].Derate = sta.DefaultAOCV() // different OCV model: arrivals differ
	p := PlanFor(s, 560)
	if p.SetupDominator[1] != -1 {
		t.Fatalf("scenario with different derate model must not be pruned, got dominator %d", p.SetupDominator[1])
	}
	s = planScenarios()
	s[1].Lib = &liberty.Library{Name: "other"}
	if p := PlanFor(s, 560); p.SetupDominator[1] != -1 {
		t.Fatalf("scenario with different library must not be pruned")
	}
	// A slower-clocked (scan-style) sibling is dominated by the tight
	// functional corner even at lower uncertainty.
	s = planScenarios()
	s[1].PeriodScale = 4
	s[1].SetupUncertainty = 5
	if p := PlanFor(s, 560); p.SetupDominator[1] != 0 {
		t.Fatalf("4x-period scenario should be setup-dominated by index 0, got %d", p.SetupDominator[1])
	}
}

func TestPlanForTieBreakIsStrictOrder(t *testing.T) {
	// Two scenarios with identical constraints: the lower index wins and
	// is itself unpruned — no mutual domination.
	s := planScenarios()[:2]
	s[1].SetupUncertainty = 25
	p := PlanFor(s, 560)
	if p.SetupDominator[0] != -1 || p.SetupDominator[1] != 0 {
		t.Fatalf("identical twins: dominators %v, want [-1 0]", p.SetupDominator)
	}
}

func TestNoPrune(t *testing.T) {
	p := NoPrune(PlanFor(planScenarios(), 560))
	for i := range p.Names {
		if p.SetupDominator[i] != -1 || p.HoldDominator[i] != -1 {
			t.Fatalf("NoPrune left dominator at %d", i)
		}
	}
	if p.Prunes != nil {
		t.Fatalf("NoPrune kept prune records")
	}
	if !p.SetupActive[0] || !p.HoldActive[2] {
		t.Fatalf("NoPrune dropped active masks")
	}
}

// --- analyzer-backed fixture -------------------------------------------

var (
	fixOnce  sync.Once
	fixScens []core.Scenario
	fixD     *netlist.Design
	fixStack *parasitics.Stack
)

// fixture generates one slow library, a 4-scenario recipe over it (two
// setup corners, two hold corners — each pair delay-identical with one
// uniformly tighter member), and a small violating block.
func fixture(t testing.TB) ([]core.Scenario, *netlist.Design, *parasitics.Stack) {
	t.Helper()
	fixOnce.Do(func() {
		fixStack = parasitics.Stack16()
		slow := liberty.Generate(liberty.Node16, liberty.PVT{
			Process: liberty.SS, Voltage: liberty.Node16.VDDNominal * 0.9, Temp: 125,
		}, liberty.GenOptions{})
		cw := fixStack.Corner(parasitics.CWorst, 3)
		flat := sta.DefaultFlatOCV()
		fixScens = []core.Scenario{
			{Name: "func_tight", Lib: slow, Scaling: cw, PeriodScale: 1,
				Derate: flat, ForSetup: true, SetupUncertainty: 25},
			{Name: "func_loose", Lib: slow, Scaling: cw, PeriodScale: 1,
				Derate: flat, ForSetup: true, SetupUncertainty: 10},
			{Name: "hold_tight", Lib: slow, Scaling: cw, PeriodScale: 1,
				Derate: flat, ForHold: true, HoldUncertainty: 15},
			{Name: "hold_loose", Lib: slow, Scaling: cw, PeriodScale: 1,
				Derate: flat, ForHold: true, HoldUncertainty: 5},
		}
		fixD = circuits.Block(slow, circuits.BlockSpec{
			Name: "triage", Inputs: 10, Outputs: 10, FFs: 24, Gates: 260,
			MaxDepth: 9, Seed: 11, ClockBufferLevels: 2,
			VtMix: [3]float64{0, 0.5, 0.5},
		})
	})
	return fixScens, fixD, fixStack
}

// 480 ps puts both setup corners under water (WNS ≈ -32/-17 ps) while the
// hold corners violate on their own (≈ -18/-8 ps), so every scenario
// contributes violations and both prune branches are exercised.
const fixPeriod = units.Ps(480)

// analyzers brings up one warm analyzer per scenario over a shared design
// clone, keyed binder and frozen topology — the timingd session shape.
func analyzers(t testing.TB) []*sta.Analyzer { return analyzersAt(t, fixPeriod) }

func analyzersAt(t testing.TB, period units.Ps) []*sta.Analyzer {
	t.Helper()
	scens, src, stack := fixture(t)
	d := src.Clone()
	ck := d.Port("clk")
	binder := sta.NewKeyedNetBinder(stack, 7)
	out := make([]*sta.Analyzer, len(scens))
	var topo *sta.Topology
	for i, sc := range scens {
		cons := core.ConstraintsFor(d, ck, period, 0, sc)
		a, err := sta.New(d, cons, sta.Config{
			Lib: sc.Lib, Parasitics: binder, Scaling: sc.Scaling,
			Derate: sc.Derate, SI: sc.SI, MIS: sc.MIS, Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if topo == nil {
			topo = a.Topology()
		}
		out[i] = a
	}
	return out
}

func extractAll(t testing.TB, as []*sta.Analyzer, plan Plan) []ScenarioExtract {
	t.Helper()
	out := make([]ScenarioExtract, len(as))
	for i, a := range as {
		out[i] = ExtractScenario(a, plan, i, Options{})
	}
	return out
}

// TestPruningNeverChangesReportedNumbers is the heart of the dominance
// contract: pruning on vs off must agree bitwise on every violation's
// slack AND on every path-derived feature — the dominated sibling's paths
// are the dominator's paths because the delay state is identical.
func TestPruningNeverChangesReportedNumbers(t *testing.T) {
	scens, _, _ := fixture(t)
	as := analyzers(t)
	plan := PlanFor(scens, fixPeriod)
	if plan.SetupDominator[1] != 0 || plan.HoldDominator[3] != 2 {
		t.Fatalf("fixture plan unexpected: setup %v hold %v", plan.SetupDominator, plan.HoldDominator)
	}

	pruned := BuildReport(extractAll(t, as, plan))
	full := BuildReport(extractAll(t, as, NoPrune(plan)))

	if pruned.Stats.PrunedPairs == 0 {
		t.Fatal("fixture produced no pruned pairs — dominated scenarios have no violations")
	}
	if got, want := pruned.Stats.AnalyzedPairs+pruned.Stats.PrunedPairs, full.Stats.AnalyzedPairs; got != want {
		t.Fatalf("pair accounting: analyzed %d + pruned %d != unpruned analyzed %d",
			pruned.Stats.AnalyzedPairs, pruned.Stats.PrunedPairs, want)
	}
	if pruned.Stats.Violations != full.Stats.Violations {
		t.Fatalf("violation count changed under pruning: %d vs %d",
			pruned.Stats.Violations, full.Stats.Violations)
	}

	index := func(r Report) map[string]Violation {
		m := map[string]Violation{}
		for _, c := range r.Clusters {
			for _, v := range c.Violations {
				m[v.Scenario+"|"+v.Kind+"|"+v.Endpoint] = v
			}
		}
		return m
	}
	fullBy := index(full)
	for key, pv := range index(pruned) {
		fv, ok := fullBy[key]
		if !ok {
			t.Fatalf("violation %s missing from unpruned report", key)
		}
		if pv.Slack != fv.Slack {
			t.Fatalf("%s: slack changed under pruning: %v vs %v", key, pv.Slack, fv.Slack)
		}
		if !reflect.DeepEqual(pv.Segments, fv.Segments) || pv.Depth != fv.Depth ||
			pv.Pessimism != fv.Pessimism || pv.ClockPair != fv.ClockPair || pv.RF != fv.RF {
			t.Fatalf("%s: inherited path features differ from direct extraction:\npruned: %+v\ndirect: %+v", key, pv, fv)
		}
	}
}

// A graph kept across calls answers what fresh ones do — its key table read
// back, its merge scratch reused — and one another call holds answers the
// same on scratch of its own, without waiting.
func TestGraphKeptOrBusyAnswersTheSame(t *testing.T) {
	scens, _, _ := fixture(t)
	as := analyzers(t)
	plan := PlanFor(scens, fixPeriod)
	want := BuildReport(extractAll(t, as, plan))
	g := NewGraph(nil)
	render := func() Report {
		ex := make([]ScenarioExtract, len(as))
		for i, a := range as {
			ex[i] = g.Extract(a.Walker(), plan, i, Options{})
		}
		return g.Report(ex)
	}
	for i := 0; i < 2; i++ {
		if got := render(); !reflect.DeepEqual(got, want) {
			t.Fatalf("render %d on a kept graph differs from fresh graphs", i)
		}
	}
	g.mu.Lock()
	got := render()
	g.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a busy graph's fallback differs from fresh graphs")
	}
}

// A graph that meets another topology starts its key table over: the same
// vertex pair there names other pins.
func TestGraphTableStartsOverOnAnotherTopology(t *testing.T) {
	scens, _, stack := fixture(t)
	plan := PlanFor(scens, fixPeriod)
	g := NewGraph(nil)
	for i, a := range analyzers(t) {
		g.Extract(a.Walker(), plan, i, Options{})
	}
	sc := scens[0]
	d := circuits.Block(sc.Lib, circuits.BlockSpec{
		Name: "other", Inputs: 10, Outputs: 10, FFs: 24, Gates: 260,
		MaxDepth: 9, Seed: 12, ClockBufferLevels: 2,
		VtMix: [3]float64{0, 0.5, 0.5},
	})
	a, err := sta.New(d, core.ConstraintsFor(d, d.Port("clk"), fixPeriod/2, 0, sc), sta.Config{
		Lib: sc.Lib, Parasitics: sta.NewKeyedNetBinder(stack, 7), Scaling: sc.Scaling, Derate: sc.Derate,
	})
	if err == nil {
		err = a.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	want := ExtractScenario(a, plan, 0, Options{})
	if len(want.Violations) == 0 {
		t.Fatal("the other design does not violate")
	}
	if got := g.Extract(a.Walker(), plan, 0, Options{}); !reflect.DeepEqual(got, want) {
		t.Fatal("a graph kept across topologies answers differently from a fresh one")
	}
}

func TestExtractDeterministic(t *testing.T) {
	scens, _, _ := fixture(t)
	as := analyzers(t)
	plan := PlanFor(scens, fixPeriod)
	a := ExtractScenario(as[0], plan, 0, Options{})
	b := ExtractScenario(as[0], plan, 0, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated extraction differs")
	}
	if a.AnalyzedPairs == 0 || len(a.Violations) == 0 {
		t.Fatalf("fixture scenario 0 extracted nothing: %+v", a.Violations)
	}
	for _, v := range a.Violations {
		if v.Slack >= 0 {
			t.Fatalf("non-violating endpoint reported: %+v", v)
		}
		if len(v.Segments) == 0 || v.ClockPair == "" || v.Depth == 0 {
			t.Fatalf("analyzed violation missing path features: %+v", v)
		}
	}
}

// A kind that is active and clean contributes nothing — and "nothing" is the
// nil list the wire has always carried as "violations":null, whatever the
// extraction presizes.
func TestExtractCleanScenarioIsNull(t *testing.T) {
	scens, _, _ := fixture(t)
	var idx int
	for idx = range scens {
		if scens[idx].ForSetup && !scens[idx].ForHold {
			break
		}
	}
	ex := ExtractScenario(analyzersAt(t, 5000)[idx], PlanFor(scens, 5000), idx, Options{})
	if ex.Violations != nil || ex.AnalyzedPairs+ex.PrunedPairs != 0 {
		t.Fatalf("setup-only scenario %s at a 5 ns period extracted %+v", scens[idx].Name, ex)
	}
	if b, _ := json.Marshal(ex); !strings.Contains(string(b), `"violations":null`) {
		t.Fatalf("clean extract encodes as %s", b)
	}
}

func TestBuildReportClustersAndRanks(t *testing.T) {
	scens, _, _ := fixture(t)
	as := analyzers(t)
	rep := BuildReport(extractAll(t, as, PlanFor(scens, fixPeriod)))
	if len(rep.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	total := 0
	for i, c := range rep.Clusters {
		if c.ID != i+1 {
			t.Fatalf("cluster IDs not sequential: %d at %d", c.ID, i)
		}
		if i > 0 && rep.Clusters[i-1].TNS > c.TNS {
			t.Fatalf("clusters not ranked by TNS: %v after %v", c.TNS, rep.Clusters[i-1].TNS)
		}
		if c.DominantScenario == "" {
			t.Fatalf("cluster %d missing dominant scenario", c.ID)
		}
		var tns units.Ps
		for _, v := range c.Violations {
			tns += v.Slack
		}
		if tns != c.TNS {
			t.Fatalf("cluster %d TNS %v != member sum %v", c.ID, c.TNS, tns)
		}
		total += len(c.Violations)
	}
	if total != rep.Stats.Violations {
		t.Fatalf("clusters hold %d violations, stats say %d", total, rep.Stats.Violations)
	}
	if len(rep.Prunes) == 0 {
		t.Fatal("prune audit trail empty")
	}
}

func TestClustersLinkRules(t *testing.T) {
	vs := []Violation{
		// a and b share a segment (cross-endpoint link).
		{Scenario: "s1", Kind: "setup", Endpoint: "ff1/D", Slack: -10,
			ClockPair: "clk>clk", DerateClass: "FlatOCV", Segments: []string{"u1/Z>ff1/D"}},
		{Scenario: "s1", Kind: "setup", Endpoint: "ff2/D", Slack: -5,
			ClockPair: "clk>clk", DerateClass: "FlatOCV", Segments: []string{"u1/Z>ff1/D", "x>y"}},
		// c shares endpoint+clock pair with a (cross-scenario link).
		{Scenario: "s2", Kind: "setup", Endpoint: "ff1/D", Slack: -2,
			ClockPair: "clk>clk", DerateClass: "AOCV", Segments: []string{"q>r"}},
		// d is isolated: distinct endpoint, segments, clock pair.
		{Scenario: "s1", Kind: "hold", Endpoint: "ff9/D", Slack: -1,
			ClockPair: "other>clk", DerateClass: "FlatOCV", Segments: []string{"m>n"}},
	}
	cs := NewGraph(nil).clusters(vs)
	if len(cs) != 2 {
		t.Fatalf("got %d clusters, want 2: %+v", len(cs), cs)
	}
	big := cs[0]
	if len(big.Violations) != 3 || big.TNS != -17 {
		t.Fatalf("big cluster wrong: %+v", big)
	}
	if big.DominantSegment != "u1/Z>ff1/D" {
		t.Fatalf("dominant segment %q", big.DominantSegment)
	}
	if big.DominantScenario != "s1" {
		t.Fatalf("dominant scenario %q", big.DominantScenario)
	}
	if big.WorstSlack != -10 {
		t.Fatalf("worst slack %v", big.WorstSlack)
	}
	if len(cs[1].Violations) != 1 || cs[1].Violations[0].Endpoint != "ff9/D" {
		t.Fatalf("isolated cluster wrong: %+v", cs[1])
	}
}

func TestBuildReportResolvesPrunedFeatures(t *testing.T) {
	extracts := []ScenarioExtract{
		{Scenario: "tight", AnalyzedPairs: 1, Violations: []Violation{
			{Scenario: "tight", Kind: "setup", Endpoint: "ff1/D", Slack: -20,
				Depth: 4, Pessimism: 3, ClockPair: "clk>clk",
				DerateClass: "FlatOCV", Segments: []string{"a>b", "b>c"}},
		}},
		{Scenario: "loose", PrunedPairs: 1,
			Prunes: []PruneRecord{{Scenario: "loose", Kind: "setup",
				DominatedBy: "tight", Reason: "test"}},
			Violations: []Violation{
				{Scenario: "loose", Kind: "setup", Endpoint: "ff1/D", Slack: -5,
					DerateClass: "FlatOCV", PrunedBy: "tight"},
			}},
	}
	rep := BuildReport(extracts)
	if len(rep.Clusters) != 1 {
		t.Fatalf("want one cluster, got %+v", rep.Clusters)
	}
	var resolved *Violation
	for i, v := range rep.Clusters[0].Violations {
		if v.Scenario == "loose" {
			resolved = &rep.Clusters[0].Violations[i]
		}
	}
	if resolved == nil {
		t.Fatal("pruned violation missing")
	}
	if !reflect.DeepEqual(resolved.Segments, []string{"a>b", "b>c"}) ||
		resolved.Depth != 4 || resolved.Pessimism != 3 || resolved.ClockPair != "clk>clk" {
		t.Fatalf("pruned violation did not inherit dominator features: %+v", resolved)
	}
	if resolved.Slack != -5 {
		t.Fatalf("pruned violation slack overwritten: %v", resolved.Slack)
	}
	if rep.Stats.AnalyzedPairs != 1 || rep.Stats.PrunedPairs != 1 || len(rep.Prunes) != 1 {
		t.Fatalf("stats wrong: %+v prunes %v", rep.Stats, rep.Prunes)
	}
}
