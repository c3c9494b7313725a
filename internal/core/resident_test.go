package core

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/cts"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/opt"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// freshSurvey surveys a clone of e's design with a new engine configured
// like e: what e's own Survey must report whatever e did before. The
// useful-skew schedule and NDRs are engine state no test here sets, and
// none changes an existing net's sink count, so the sequential binder hands
// the clone's nets the trees it handed the originals.
func freshSurvey(t *testing.T, e *Engine, seed int64) Iteration {
	t.Helper()
	d := e.D.Clone()
	f := &Engine{
		D: d, Recipe: e.Recipe, BasePeriod: e.BasePeriod, ClockPort: d.Port(e.ClockPort.Name),
		Parasitics:   sta.NewNetBinder(parasitics.Stack16(), seed),
		InputArrival: e.InputArrival, Workers: e.Workers,
	}
	it, err := f.Survey()
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func survey(t *testing.T, e *Engine) (Iteration, []*sta.Analyzer) {
	t.Helper()
	it, err := e.Survey()
	if err != nil {
		t.Fatal(err)
	}
	return it, append([]*sta.Analyzer(nil), e.Analyzers()...)
}

func sameAnalyzers(a, b []*sta.Analyzer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A survey keeps its analyzers for the next one across retyped cells and
// across an inserted buffer alike; either way the result is a fresh engine's.
func TestSurveyKeepsAnalyzersAcrossStructuralEdits(t *testing.T) {
	const seed = 42
	recipe := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	lib := recipe.Scenarios[0].Lib
	d := detTestDesign(lib, seed)
	e := detEngine(recipe, d, seed, 1)
	first, as := survey(t, e)
	if again, kept := survey(t, e); !sameAnalyzers(kept, as) || !reflect.DeepEqual(again, first) {
		t.Fatal("second survey of an untouched design must reuse the analyzers and repeat the result")
	}

	retyped := 0
	for _, c := range d.Cells {
		m := lib.Cell(c.TypeName)
		if to := lib.Variant(m, m.Drive, liberty.LVT); !m.IsSequential() && to != nil && to != m && retyped < 25 {
			c.SetType(to.Name)
			retyped++
		}
	}
	if retyped == 0 {
		t.Fatal("no cell to retype")
	}
	got, kept := survey(t, e)
	if !sameAnalyzers(kept, as) {
		t.Error("SetType alone must not cost the analyzers")
	}
	if reflect.DeepEqual(got, first) {
		t.Error("retyping 25 cells left the survey unchanged: the resident analyzers missed it")
	}
	if want := freshSurvey(t, e, seed); !reflect.DeepEqual(got, want) {
		t.Errorf("after SetType: resident survey\n %+v\nfresh engine\n %+v", got, want)
	}

	var net *netlist.Net
	for _, n := range d.Nets {
		if n.Driver != nil && len(n.Loads) >= 2 {
			net = n
			break
		}
	}
	if _, err := d.InsertBuffer(net, net.Loads[:1], lib.Variant(lib.Cell("BUF_X1_SVT"), 1, liberty.SVT).Name); err != nil {
		t.Fatal(err)
	}
	got, kept = survey(t, e)
	if !sameAnalyzers(kept, as) {
		t.Error("a buffer insertion must not cost the analyzers")
	}
	if want := freshSurvey(t, e, seed); !reflect.DeepEqual(got, want) {
		t.Errorf("after InsertBuffer: resident survey\n %+v\nfresh engine\n %+v", got, want)
	}
}

// Everything an analyzer is built from is part of what keeps it: changing
// any of it between surveys costs the analyzers. A recorder in particular is
// bound at construction, so a kept analyzer would go on recording into the
// old one. The worker budget is not: every survey reads it afresh, so the
// analyzers are kept across a change of it.
func TestSurveyRebuildsWhenItsInputsChange(t *testing.T) {
	const seed = 42
	recipe := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	d := detTestDesign(recipe.Scenarios[0].Lib, seed)
	e := detEngine(recipe, d, seed, 1)
	e.Recipe.Scenarios = append([]Scenario(nil), recipe.Scenarios...)
	_, as := survey(t, e)

	rec := obs.NewRecorder()
	otherLib := e.Recipe.Scenarios[1].Lib
	for _, step := range []struct {
		name   string
		change func()
		check  func(t *testing.T, it Iteration)
		kept   bool // the survey after the change re-runs the analyzers
	}{
		{"Obs", func() { e.Obs = rec }, func(t *testing.T, _ Iteration) {
			if rec.Counter("sta.run.nets_filled").Value() == 0 {
				t.Error("the new recorder saw no delay calculation: analyzers still bound to the old one")
			}
		}, false},
		{"Workers", func() { e.Workers = 4 }, nil, true},
		{"BasePeriod", func() { e.BasePeriod += 40 }, nil, false},
		{"InputArrival", func() { e.InputArrival = 55 }, nil, false},
		{"scenario Lib", func() { e.Recipe.Scenarios[0].Lib = otherLib }, func(t *testing.T, it Iteration) {
			if a := e.Analyzers()[0]; a.Cfg.Lib != otherLib {
				t.Error("scenario 0 still analyzed under its old library")
			}
		}, false},
		{"scenario margin", func() { e.Recipe.Scenarios[0].SetupUncertainty += 15 }, nil, false},
	} {
		step.change()
		got, now := survey(t, e)
		if step.kept && !sameAnalyzers(now, as) {
			t.Errorf("%s changed: the analyzers were rebuilt, not re-run", step.name)
		}
		for i := range now {
			if !step.kept && now[i] == as[i] {
				t.Errorf("%s changed: scenario %d kept its analyzer", step.name, i)
			}
		}
		if want := freshSurvey(t, e, seed); !reflect.DeepEqual(got, want) {
			t.Errorf("%s changed: resident survey\n %+v\nfresh engine\n %+v", step.name, got, want)
		}
		if step.check != nil {
			step.check(t, got)
		}
		as = now
		if _, kept := survey(t, e); !sameAnalyzers(kept, as) {
			t.Errorf("%s: survey after the change settled did not keep the analyzers", step.name)
		}
	}
}

// A full closure run — fix passes editing cells, buffers, NDRs and the skew
// schedule between surveys — ends with analyzers that agree, endpoint for
// endpoint, with ones built from scratch on the final netlist, and with no
// hold endpoint left violated.
func TestCloseLeavesAnalyzersCurrent(t *testing.T) {
	recipe := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	e := engine(t, recipe, 560, 42)
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rebuilt := e.views(recipe.Scenarios, func(s Scenario, _ int, cons *sta.Constraints, cfg *sta.Config) func() {
		e.tune(s, cons, cfg, nil)
		return nil
	})
	if err := rebuilt.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, s := range recipe.Scenarios {
		fresh, kept := rebuilt.Analyzers()[i], e.Analyzers()[i]
		if kept == fresh {
			t.Fatal("Build must construct new analyzers")
		}
		for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
			if !reflect.DeepEqual(kept.EndpointSlacks(kind), fresh.EndpointSlacks(kind)) {
				t.Errorf("scenario %s: resident analyzer's %v endpoints differ from a fresh build's", s.Name, kind)
			}
		}
		if !s.ForHold {
			continue
		}
		for _, ep := range kept.EndpointSlacks(sta.Hold) {
			if ep.Slack < 0 {
				t.Errorf("scenario %s: hold endpoint %s left at %.1f ps", s.Name, ep.Name(), ep.Slack)
			}
		}
	}
}

// A warm survey pays for its queries, not for analyzers, constraint maps or
// delay calculation: it measures 57 objects on this design (59 under -race,
// 79 while each re-run made new constraint sets), where a survey that builds
// its analyzers measures 2 797.
func TestWarmSurveyAllocations(t *testing.T) {
	const seed = 42
	recipe := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	e := detEngine(recipe, detTestDesign(recipe.Scenarios[0].Lib, seed), seed, 1)
	survey(t, e)
	const limit = 70
	if n := testing.AllocsPerRun(5, func() { survey(t, e) }); n > limit {
		t.Errorf("warm survey allocates %v objects, want at most %d", n, limit)
	}
}

// closeOnce is Close for a single trip round the Figure 1 loop with one
// difference: every fix phase after the first starts from analyzers built
// from nothing over the netlist as the earlier phases left it. Close hands
// those phases the survey's own analyzers, so the two agree only if a pass's
// opening Run really does see the buffers inserted before it.
func closeOnce(t *testing.T, e *Engine) []Iteration {
	t.Helper()
	must := func(rep opt.Report, err error) opt.Report {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rebuilt := func(a *sta.Analyzer) *sta.Analyzer {
		if a == nil {
			return nil
		}
		na, err := sta.New(a.D, a.Cons, a.Cfg)
		if err == nil {
			err = na.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		return na
	}
	e.uskew = map[*netlist.Cell]units.Ps{}
	it, worstSetup, worstHold, worstDRC, err := e.survey()
	if err != nil {
		t.Fatal(err)
	}
	it.Index = 1
	if worstSetup != nil && it.MergedSetupWNS < 0 {
		ctx := &opt.Context{A: worstSetup, Lib: worstSetup.Cfg.Lib, Place: e.Place}
		vopts := opt.DefaultVtSwap()
		vopts.MinIAAware = e.Recipe.MinIAAware
		for _, pass := range []func() (opt.Report, error){
			func() (opt.Report, error) { return opt.VtSwap(ctx, vopts) },
			func() (opt.Report, error) { return opt.Resize(ctx, opt.DefaultResize()) },
			func() (opt.Report, error) { return opt.FixDRC(ctx, opt.DefaultBuffer()) },
			func() (opt.Report, error) { return opt.ApplyNDR(ctx, 30) },
		} {
			it.Fixes = append(it.Fixes, must(pass()))
			if ctx.A.WorstSlack(sta.Setup) >= 0 {
				break
			}
		}
		if e.Recipe.UseUsefulSkew && ctx.A.WorstSlack(sta.Setup) < 0 {
			us, err := cts.ScheduleUsefulSkew(ctx.A, ctx.Lib, cts.DefaultUsefulSkew())
			if err != nil {
				t.Fatal(err)
			}
			for ff, off := range us.Offsets {
				e.uskew[ff] = off
			}
			it.Fixes = append(it.Fixes, opt.Report{Pass: "useful_skew", Changed: us.Adjusted, WNSBefore: us.WNSBefore, WNSAfter: us.WNSAfter})
		}
	}
	if worstHold != nil && it.MergedHoldWNS < 0 {
		ctx := &opt.Context{A: rebuilt(worstHold), Lib: worstHold.Cfg.Lib, SetupGuard: rebuilt(worstSetup)}
		it.Fixes = append(it.Fixes, must(opt.FixHold(ctx, 100)))
	}
	if a := worstDRC; a != nil && it.Breakdown.MaxTran+it.Breakdown.MaxCap+it.Breakdown.Noise > 0 {
		ctx := &opt.Context{A: rebuilt(a), Lib: a.Cfg.Lib}
		if it.Breakdown.MaxTran+it.Breakdown.MaxCap > 0 {
			it.Fixes = append(it.Fixes, must(opt.FixDRC(ctx, opt.DefaultBuffer())))
		}
		if it.Breakdown.Noise > 0 {
			it.Fixes = append(it.Fixes, must(opt.FixNoise(ctx, 60)))
		}
	}
	fin, _, _, _, err := e.survey()
	if err != nil {
		t.Fatal(err)
	}
	fin.Index = 2
	return []Iteration{it, fin}
}

// Under the new goal posts the setup phase's DRC buffers and the hold
// phase's pads land in the netlist before the hold and DRC/noise phases of
// the same iteration open: those phases must time the graph as it then is,
// not the one the survey saw (which cost seed 42 the whole MaxFixes budget
// in iteration 1, on violations that were no longer there).
func TestCloseFixPhasesSeeCurrentGraph(t *testing.T) {
	recipe := detRecipes(t)["new"]
	recipe.MaxIterations, recipe.RecoverAfterClose = 1, false
	const seed = 42
	engine := func() *Engine {
		d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
			Name: "soc", Inputs: 24, Outputs: 24, FFs: 96, Gates: 1400,
			MaxDepth: 13, Seed: seed, ClockBufferLevels: 3,
			VtMix: [3]float64{0, 0.4, 0.6},
		})
		return &Engine{
			D: d, Recipe: recipe, BasePeriod: 560, ClockPort: d.Port("clk"),
			Parasitics: sta.NewNetBinder(parasitics.Stack16(), seed), Workers: 1,
		}
	}
	res, err := engine().Close()
	if err != nil {
		t.Fatal(err)
	}
	wantCostsBooked(t, res)
	want := closeOnce(t, engine())
	buffered := false
	for _, f := range want[0].Fixes {
		buffered = buffered || (f.Pass == "hold_fix" && f.Changed > 0)
	}
	if !buffered || len(want[0].Fixes) < 3 {
		t.Fatalf("fixture no longer buffers before its last fix phase: %+v", want[0].Fixes)
	}
	if !reflect.DeepEqual(res.Iterations, want) {
		t.Errorf("Close:\n %+v\nwith every fix phase's analyzers rebuilt first:\n %+v", res.Iterations, want)
	}
}

// revisions is a Derater that notes the design's structural revision each
// time an analyzer asks it for the endpoint sigma multiple, which every Run
// and Update does: the set of netlist revisions a closure timed.
type revisions struct {
	sta.Derater
	d    *netlist.Design
	seen map[uint64]bool
}

func (r *revisions) NSigma() float64 {
	r.seen[r.d.Revision()] = true
	return r.Derater.NSigma()
}

// A closure's fix phase derives or patches a graph once per netlist
// revision it times. Here the hold pass pads endpoints and its analyzer
// patches the pads into its graph; the DRC pass then opens on another
// scenario's analyzer, which must adopt that graph rather than patch or
// levelize the same netlist again.
func TestRepairLevelizesEachRevisionOnce(t *testing.T) {
	recipe := detRecipes(t)["new"]
	const seed = 42
	d := detTestDesign(recipe.Scenarios[0].Lib, seed)
	seen := map[uint64]bool{}
	for i := range recipe.Scenarios {
		s := &recipe.Scenarios[i]
		s.Derate = &revisions{s.Derate, d, seen}
	}
	e := detEngine(recipe, d, seed, 1)
	e.Obs = obs.NewRecorder()
	e.uskew = map[*netlist.Cell]units.Ps{}
	it, worstSetup, worstHold, worstDRC, err := e.survey()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.repair(&it, &Result{}, nil, worstSetup, worstHold, worstDRC); err != nil {
		t.Fatal(err)
	}
	var passes []string
	for _, f := range it.Fixes {
		passes = append(passes, f.Pass)
		if f.Pass == "hold_fix" && f.Changed == 0 {
			t.Fatal("fixture no longer pads in its hold pass")
		}
	}
	if !slices.Contains(passes, "hold_fix") || passes[len(passes)-1] != "drc_fix" || worstDRC == worstHold {
		t.Fatalf("fixture no longer runs its DRC pass on another analyzer after the hold pass: %v", passes)
	}
	built, patched := e.Obs.Counter("sta.topologies_built").Value(), e.Obs.Counter("sta.topologies_patched").Value()
	if built+patched != int64(len(seen)) {
		t.Errorf("the fix phase built %d topologies and patched %d for %d netlist revisions timed", built, patched, len(seen))
	}
}

// A sibling scenario adopts scenario 0's graph whatever type name a fix
// pass gave a cell, so long as its arc shape is the one the graph was built
// with. On C5315 under the new goal posts, a DRC pass upsizes a driver to a
// type the design did not use before (NOR3_X8_SVT); the re-run after it
// still shares one graph. One Close() builds one topology over six
// iterations and patches nine, one per hold pad round.
func TestCloseAdoptsTheGraphAcrossUpsizes(t *testing.T) {
	recipe := detRecipes(t)["new"]
	d := circuits.C5315(recipe.Scenarios[0].Lib)
	before := map[string]bool{}
	for _, c := range d.Cells {
		before[c.TypeName] = true
	}
	e := &Engine{
		D: d, Recipe: recipe, BasePeriod: 560, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(parasitics.Stack16(), 42), Obs: obs.NewRecorder(),
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	upsized := false
	for _, c := range d.Cells {
		upsized = upsized || !before[c.TypeName]
	}
	if len(res.Iterations) != 6 || !upsized {
		t.Fatalf("fixture no longer runs six iterations with an upsize to a new type: %d iterations, upsized %v", len(res.Iterations), upsized)
	}
	if got := e.Obs.Counter("sta.topologies_built").Value(); got != 1 {
		t.Errorf("Close built %d topologies, want 1", got)
	}
	if got := e.Obs.Counter("sta.topologies_patched").Value(); got != 9 {
		t.Errorf("Close patched %d topologies, want 9: one per hold pad round", got)
	}
}

// Close builds one scenario set and re-times it to the end: the fix passes
// and margin recovery edit the survey's own analyzers, so a closure that
// reaches recovery constructs exactly one analyzer per scenario.
func TestCloseBuildsOneScenarioSet(t *testing.T) {
	recipe := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	e := engine(t, recipe, 560, 42)
	e.Obs = obs.NewRecorder()
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fixes := res.Final.Fixes; !res.Closed || len(fixes) == 0 || fixes[0].Pass != "leak_recover" {
		t.Fatalf("closure did not reach margin recovery: closed=%v, final fixes %+v", res.Closed, fixes)
	}
	if got := e.Obs.Counter("sta.analyzers_built").Value(); got != int64(len(recipe.Scenarios)) {
		t.Errorf("Close built %d analyzers, want %d: one per scenario", got, len(recipe.Scenarios))
	}
}

// A recovery batch's Verify survey that fails fails Close with its error:
// here the hold corner's library has no HVT masters, so the first batch of
// leakage downswaps cannot be timed there.
func TestCloseReportsRecoveryVerifyError(t *testing.T) {
	recipe := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	hold := &recipe.Scenarios[1]
	hold.Lib = liberty.Generate(hold.Lib.Tech, hold.Lib.PVT, liberty.GenOptions{Vts: []liberty.VtClass{liberty.SVT, liberty.LVT}})
	d := circuits.Chain(recipe.Scenarios[0].Lib, circuits.ChainSpec{Stages: 20, Vt: liberty.SVT})
	e := &Engine{
		D: d, Recipe: recipe, BasePeriod: 2000, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(parasitics.Stack16(), 45),
	}
	res, err := e.Close()
	if err == nil || !strings.Contains(err.Error(), "scenario "+hold.Name) {
		t.Fatalf("Close = %v, %v; want the hold scenario's survey error", res, err)
	}
	if e.Analyzers() != nil {
		t.Error("the failed survey's analyzers are still resident")
	}
}
