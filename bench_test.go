package newgame

// One benchmark per reproduced table/figure (see DESIGN.md §3). Each bench
// regenerates its experiment end-to-end, so `go test -bench=.` is the full
// reproduction sweep with per-experiment wall time. Results are checked for
// structural sanity (an experiment returning an error fails the bench).

import (
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/conformance"
	"newgame/internal/core"
	"newgame/internal/experiments"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/parasitics"
	"newgame/internal/spice"
	"newgame/internal/sta"
	"newgame/internal/variation"
)

func benchExperiment(b *testing.B, id string) {
	e := experiments.Find(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Run()
		if r.Title == "error" {
			b.Fatalf("experiment failed: %s", r.Text)
		}
	}
}

func BenchmarkFig01ClosureLoop(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig02OldVsNew(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig03CareAbouts(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig04MISvsSIS(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig05SADPSigma(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig06aMinIA(b *testing.B)          { benchExperiment(b, "fig6a") }
func BenchmarkFig06bTempInversion(b *testing.B)  { benchExperiment(b, "fig6b") }
func BenchmarkFig06cGateWire(b *testing.B)       { benchExperiment(b, "fig6c") }
func BenchmarkFig07MCAsymmetry(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig08TBC(b *testing.B)             { benchExperiment(b, "fig8") }
func BenchmarkFig09AgingAVS(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10FFInterdep(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11PBAvsGBA(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12CornerExplosion(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13AVSTypical(b *testing.B)      { benchExperiment(b, "fig13") }

func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablation") }

func BenchmarkLowPower(b *testing.B) { benchExperiment(b, "lowpower") }

// ------------------------------------------------------------------------
// Sub-benchmarks isolating the concurrent-signoff layers: level-parallel
// propagation inside one analyzer (serial vs parallel), incremental
// re-timing after small edits vs full re-timing, and the scenario-parallel
// MCMM survey. The speedups only materialize with >1 CPU; the serial
// variants double as allocation-regression sentinels for the reused
// buffers.

func benchLib() *liberty.Library {
	return liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}, liberty.GenOptions{})
}

// benchBlock is the 3 000-gate block the sta benchmarks time.
func benchBlock(lib *liberty.Library) *netlist.Design {
	return circuits.Block(lib, circuits.BlockSpec{
		Name: "bench", Inputs: 24, Outputs: 24, FFs: 160, Gates: 3000,
		MaxDepth: 13, Seed: 42, ClockBufferLevels: 3,
		VtMix: [3]float64{0.1, 0.5, 0.4},
	})
}

func benchAnalyzer(b *testing.B, design func(*liberty.Library) *netlist.Design, workers int) (*sta.Analyzer, *netlist.Design, *liberty.Library) {
	b.Helper()
	lib := benchLib()
	const seed = 42
	d := design(lib)
	cons := sta.NewConstraints()
	cons.AddClock("clk", 560, d.Port("clk"))
	a, err := sta.New(d, cons, sta.Config{
		Lib: lib, Parasitics: sta.NewNetBinder(parasitics.Stack16(), seed),
		SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), MIS: true,
		Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	return a, d, lib
}

// benchSTARun times a warm full Run: the analyzer's first Run, which
// allocates its delay-calc cache and check sites, is done before the timer
// starts.
func benchSTARun(b *testing.B, design func(*liberty.Library) *netlist.Design, workers int) {
	a, _, _ := benchAnalyzer(b, design, workers)
	if err := a.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTARunSerial(b *testing.B)   { benchSTARun(b, benchBlock, 1) }
func BenchmarkSTARunParallel(b *testing.B) { benchSTARun(b, benchBlock, 0) }

// The AES pair is the same warm Run on the ~11k-gate survey design of the
// benchmark's batch_signoff workload.
func BenchmarkSTARunAESSerial(b *testing.B)   { benchSTARun(b, circuits.AES, 1) }
func BenchmarkSTARunAESParallel(b *testing.B) { benchSTARun(b, circuits.AES, 0) }

// benchRetime measures re-timing after a small edit (one Vt swap per
// iteration), either incrementally or with a full Run.
func benchRetime(b *testing.B, incremental bool) {
	a, d, lib := benchAnalyzer(b, benchBlock, 1)
	if err := a.Run(); err != nil {
		b.Fatal(err)
	}
	var cands []*netlist.Cell
	for _, c := range d.Cells {
		m := lib.Cell(c.TypeName)
		if m.IsSequential() || m.Vt == liberty.LVT {
			continue
		}
		if lib.Variant(m, m.Drive, liberty.LVT) != nil {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		b.Fatal("no swappable cells")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		m := lib.Cell(c.TypeName)
		to := lib.Variant(m, m.Drive, liberty.LVT)
		if i/len(cands)%2 == 1 {
			to = lib.Variant(m, m.Drive, liberty.SVT)
		}
		if to == nil || to.Name == c.TypeName {
			continue
		}
		c.SetType(to.Name)
		if incremental {
			a.InvalidateCell(c)
			if err := a.Update(); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := a.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkIncrementalRetime(b *testing.B) { benchRetime(b, true) }
func BenchmarkFullRetime(b *testing.B)        { benchRetime(b, false) }

// BenchmarkStructuralRetime measures re-timing across a structural edit on
// the analyzer that exists: one buffer inserted, a full Run, the buffer
// taken out again the way a what-if's rollback does, a full Run. Each Run
// patches the buffer into the graph (or goes back to the graph it was
// patched onto) and refills the two nets whose loads moved; the
// alternative it replaced is a New + Run per edit.
func BenchmarkStructuralRetime(b *testing.B) { benchStructural(b, (*sta.Analyzer).Run) }

// BenchmarkStructuralUpdate is BenchmarkStructuralRetime re-timed by
// Update: the patch and the re-time of the buffer's cone, both ways.
func BenchmarkStructuralUpdate(b *testing.B) { benchStructural(b, (*sta.Analyzer).Update) }

func benchStructural(b *testing.B, retime func(*sta.Analyzer) error) {
	a, d, _ := benchAnalyzer(b, benchBlock, 1)
	if err := a.Run(); err != nil {
		b.Fatal(err)
	}
	var n *netlist.Net
	for _, c := range d.Nets {
		if c.Driver != nil && len(c.Loads) >= 2 {
			n = c
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := conformance.InsertBuffer(d, n, n.Loads[:1], "BUF_X2_SVT")
		if err != nil {
			b.Fatal(err)
		}
		if err := retime(a); err != nil {
			b.Fatal(err)
		}
		e.Undo(d)
		if err := retime(a); err != nil {
			b.Fatal(err)
		}
	}
}

// surveyEngine builds the two-scenario survey fixture on a fresh design.
func surveyEngine(name string, workers int) *core.Engine {
	stack := parasitics.Stack16()
	recipe := core.OldGoalPosts(liberty.Node16, stack)
	const seed = 42
	d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
		Name: name, Inputs: 24, Outputs: 24, FFs: 96, Gates: 1400,
		MaxDepth: 13, Seed: seed, ClockBufferLevels: 3,
		VtMix: [3]float64{0, 0.4, 0.6},
	})
	return &core.Engine{
		D: d, Recipe: recipe, BasePeriod: 560, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(stack, seed),
		Workers:    workers,
	}
}

// rebuilt returns a new engine over e's design and parasitics: one that has
// no analyzers yet.
func rebuilt(e *core.Engine) *core.Engine {
	return &core.Engine{
		D: e.D, Recipe: e.Recipe, BasePeriod: e.BasePeriod, ClockPort: e.ClockPort,
		Parasitics: e.Parasitics, Workers: e.Workers,
	}
}

// benchSurvey surveys with one engine throughout. The engine keeps its
// analyzers between surveys, so every timed survey is a warm one: a full
// re-time of each scenario with no analyzer construction and every net's
// delay calculation served from the cache — the survey a closure loop's
// margin-recovery verification runs. cold rebuilds the engine (over the
// same design and parasitics) for each survey: analyzer construction,
// levelization and delay calculation for every net, the first survey of any
// closure run.
func benchSurvey(b *testing.B, workers int, cold bool) {
	e := surveyEngine("surv", workers)
	if _, err := e.Survey(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			e = rebuilt(e)
		}
		if _, err := e.Survey(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCMMSurveySerial(b *testing.B)       { benchSurvey(b, 1, false) }
func BenchmarkMCMMSurveyParallel(b *testing.B)     { benchSurvey(b, 0, false) }
func BenchmarkMCMMSurveyColdSerial(b *testing.B)   { benchSurvey(b, 1, true) }
func BenchmarkMCMMSurveyColdParallel(b *testing.B) { benchSurvey(b, 0, true) }

// BenchmarkNetDelayCalc is the net delay calculation layer alone: the RC
// moment kernel over one design's worth of synthesized nets (fanouts 1 to
// 12, receiver pin caps attached) with SI Miller factors on, one op per
// sweep of all nets, on a warm scratch.
func BenchmarkNetDelayCalc(b *testing.B) {
	gen := parasitics.NewNetGen(parasitics.Stack16(), 42)
	type loaded struct {
		tree *parasitics.Tree
		caps []float64
	}
	nets := make([]loaded, 2000)
	for i := range nets {
		fanout := 1 + i%12
		caps := make([]float64, fanout)
		for j := range caps {
			caps[j] = 0.8 + 0.3*float64(j%4)
		}
		nets[i] = loaded{gen.Net(fanout), caps}
	}
	var sc parasitics.Scratch
	sweep := func() (sum float64) {
		for _, n := range nets {
			m := sc.Moments(n.tree, n.caps, nil, 0.65, 1.35)
			sum += m.CapL + m.M2[0]
		}
		return sum
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = sweep()
	}
}

var benchSink float64

// ------------------------------------------------------------------------
// Observability overhead: the same survey and analyzer workloads with
// recording off (nil Recorder — the shipped default) and on. The deltas
// between each Off/On pair bound the cost of the instrumentation left
// permanently in the hot paths; they should stay within noise (<2%).

func benchSurveyObs(b *testing.B, rec bool) {
	base := surveyEngine("obsb", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A recorder is bound when an analyzer is built, so recording a
		// survey into a new one means building its analyzers; the Off side
		// builds them too, so the pair differs in recording alone.
		e := rebuilt(base)
		if rec {
			e.Obs = obs.NewRecorder()
		}
		if _, err := e.Survey(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSurveyObsOff(b *testing.B) { benchSurveyObs(b, false) }
func BenchmarkSurveyObsOn(b *testing.B)  { benchSurveyObs(b, true) }

func benchSTARunObs(b *testing.B, rec bool) {
	lib := benchLib()
	const seed = 42
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "obsr", Inputs: 24, Outputs: 24, FFs: 160, Gates: 3000,
		MaxDepth: 13, Seed: seed, ClockBufferLevels: 3,
		VtMix: [3]float64{0.1, 0.5, 0.4},
	})
	cons := sta.NewConstraints()
	cons.AddClock("clk", 560, d.Port("clk"))
	cfg := sta.Config{
		Lib: lib, Parasitics: sta.NewNetBinder(parasitics.Stack16(), seed),
		SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), MIS: true,
		Workers: 0,
	}
	if rec {
		cfg.Obs = obs.NewRecorder()
	}
	a, err := sta.New(d, cons, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTARunObsOff(b *testing.B) { benchSTARunObs(b, false) }
func BenchmarkSTARunObsOn(b *testing.B)  { benchSTARunObs(b, true) }

// ------------------------------------------------------------------------
// Characterization pipeline (DESIGN.md §9): library generation, LVF Monte
// Carlo, and the SPICE transient kernel underneath both, each as
// serial-vs-parallel pairs. On one CPU the pairs coincide and the serial
// numbers measure the kernel wins (profile LU, scratch reuse, early exit,
// table memoization); with more CPUs the Parallel variants show the pool
// scaling. Output is byte-identical either way (see the determinism tests
// in internal/liberty, internal/variation, internal/ffchar).

func BenchmarkLibgen(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"Serial", 1}, {"Parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				liberty.Generate(liberty.Node16,
					liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85},
					liberty.GenOptions{Workers: bc.workers})
			}
		})
	}
}

func BenchmarkCharLVF(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"Serial", 1}, {"Parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			lib := benchLib()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				variation.CharacterizeLVFOpts(lib, 0.02, 6000, 1,
					variation.MCOpts{Workers: bc.workers})
			}
		})
	}
}

func BenchmarkSpiceTransient(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"Serial", 1}, {"Parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := variation.SpiceMCOpts(spice.Tech65, 5, 8, 0.02, 7,
					variation.MCOpts{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
