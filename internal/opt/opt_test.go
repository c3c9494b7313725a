package opt

import (
	"math/rand"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/place"
	"newgame/internal/sta"
)

func lib() *liberty.Library {
	return liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.SSG, Voltage: 0.72, Temp: 125}, liberty.GenOptions{})
}

// testCtx builds a block with a deliberately tight clock so fixes have
// violations to chew on. allHVT seeds the netlist slow to give Vt swap room.
func testCtx(t *testing.T, l *liberty.Library, period float64, seed int64) *Context {
	t.Helper()
	d := circuits.Block(l, circuits.BlockSpec{
		Name: "opt", Inputs: 16, Outputs: 16, FFs: 64, Gates: 900,
		MaxDepth: 12, Seed: seed, ClockBufferLevels: 2,
		VtMix: [3]float64{0, 0.3, 0.7}, // mostly HVT: slow start
	})
	cons := sta.NewConstraints()
	cons.AddClock("clk", period, d.Port("clk"))
	a, err := sta.New(d, cons, sta.Config{
		Lib: l, Parasitics: sta.NewNetBinder(parasitics.Stack16(), seed), Derate: sta.DefaultAOCV(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return &Context{A: a, Lib: l}
}

func TestVtSwapImprovesTiming(t *testing.T) {
	l := lib()
	ctx := testCtx(t, l, 380, 3)
	rep, err := VtSwap(ctx, VtSwapOptions{MaxMoves: 300})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WNSBefore >= 0 {
		t.Fatal("test design not violating; tighten the period")
	}
	if rep.Changed == 0 {
		t.Fatal("no swaps applied")
	}
	if rep.WNSAfter <= rep.WNSBefore {
		t.Errorf("WNS did not improve: %v -> %v", rep.WNSBefore, rep.WNSAfter)
	}
	if rep.LeakageDelta <= 0 {
		t.Errorf("Vt swap toward LVT must cost leakage, got %v", rep.LeakageDelta)
	}
}

func TestVtSwapPreservesLogic(t *testing.T) {
	l := lib()
	ctx := testCtx(t, l, 380, 4)
	d := ctx.A.D
	sim, err := circuits.NewSimulator(d, l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ins := map[string]bool{}
	for _, p := range d.Ports {
		if p.Dir == netlist.Input {
			ins[p.Name] = rng.Intn(2) == 1
		}
	}
	before, _ := sim.Eval(ins, circuits.State{})
	outBefore := sim.Outputs(before)
	if _, err := VtSwap(ctx, VtSwapOptions{MaxMoves: 300}); err != nil {
		t.Fatal(err)
	}
	sim2, err := circuits.NewSimulator(d, l)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := sim2.Eval(ins, circuits.State{})
	outAfter := sim2.Outputs(after)
	for name, v := range outBefore {
		if outAfter[name] != v {
			t.Fatalf("output %s changed after Vt swap", name)
		}
	}
}

func TestResizeImprovesTiming(t *testing.T) {
	l := lib()
	ctx := testCtx(t, l, 380, 5)
	rep, err := Resize(ctx, DefaultResize())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed == 0 {
		t.Fatal("no resizes applied")
	}
	if rep.WNSAfter < rep.WNSBefore {
		t.Errorf("resize made WNS worse and kept it: %v -> %v", rep.WNSBefore, rep.WNSAfter)
	}
	if rep.AreaDelta <= 0 {
		t.Errorf("upsizing must cost area, got %v", rep.AreaDelta)
	}
}

func TestMinIAAwareVsBlindSwap(t *testing.T) {
	// The §2.4 ablation: MinIA-blind Vt swap creates implant violations;
	// the aware variant does not.
	l := lib()
	run := func(aware bool, seed int64) int {
		ctx := testCtx(t, l, 380, seed)
		p, err := place.New(ctx.A.D, l, 300, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Clean the initial placement's violations so we measure only
		// swap-created ones.
		p.FixMinIA(place.DefaultFixOptions())
		base := len(p.Violations(place.DefaultMinIA))
		ctx.Place = p
		if _, err := VtSwap(ctx, VtSwapOptions{MaxMoves: 300, MinIAAware: aware, Rule: place.DefaultMinIA}); err != nil {
			t.Fatal(err)
		}
		return len(p.Violations(place.DefaultMinIA)) - base
	}
	blind := run(false, 6)
	aware := run(true, 6)
	if blind <= 0 {
		t.Fatalf("blind swap created %d violations; expected some", blind)
	}
	if aware > 0 {
		t.Errorf("aware swap created %d violations; expected none", aware)
	}
}

func TestLeakageRecovery(t *testing.T) {
	l := lib()
	// Relaxed clock: plenty of slack to spend.
	ctx := testCtx(t, l, 1200, 7)
	rep, err := LeakageRecovery(ctx, 150, 400)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed == 0 {
		t.Fatal("no cells downswapped despite huge slack")
	}
	if rep.LeakageDelta >= 0 {
		t.Errorf("leakage recovery must save leakage, got %v", rep.LeakageDelta)
	}
	if rep.WNSAfter < 0 {
		t.Errorf("recovery broke timing: WNS %v", rep.WNSAfter)
	}
}

func TestFixDRC(t *testing.T) {
	l := lib()
	// Build a design with deliberate fanout abuse.
	d := netlist.New("drc")
	in, _ := d.AddPort("in", netlist.Input)
	drv, err := circuits.AddCell(d, l, "drv", "INV_X1_HVT")
	if err != nil {
		t.Fatal(err)
	}
	big, _ := d.AddNet("big")
	if err := d.Connect(drv, "A", in.Net); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, "Z", big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c, _ := circuits.AddCell(d, l, d.FreshName("s"), "INV_X2_SVT")
		if err := d.Connect(c, "A", big); err != nil {
			t.Fatal(err)
		}
		o, _ := d.AddNet(d.FreshName("o"))
		if err := d.Connect(c, "Z", o); err != nil {
			t.Fatal(err)
		}
	}
	cons := sta.NewConstraints()
	a, err := sta.New(d, cons, sta.Config{Lib: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{A: a, Lib: l}
	before := len(a.DRCViolations())
	if before == 0 {
		t.Fatal("no DRC violations to fix")
	}
	rep, err := FixDRC(ctx, DefaultBuffer())
	if err != nil {
		t.Fatal(err)
	}
	after := len(ctx.A.DRCViolations())
	if after >= before {
		t.Errorf("DRC violations %d -> %d; no progress", before, after)
	}
	if rep.Changed == 0 {
		t.Error("no buffers inserted")
	}
	if errs := ctx.A.D.Validate(); len(errs) != 0 {
		t.Fatalf("netlist broken after DRC fix: %v", errs[0])
	}
}

func TestApplyNDRImprovesWireDelay(t *testing.T) {
	l := lib()
	ctx := testCtx(t, l, 380, 8)
	rep, err := ApplyNDR(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed == 0 {
		t.Skip("no NDR candidates on this seed")
	}
	if rep.WNSAfter < rep.WNSBefore-1e-9 {
		t.Errorf("NDR made timing worse: %v -> %v", rep.WNSBefore, rep.WNSAfter)
	}
}

func TestFixHold(t *testing.T) {
	l := lib()
	// Direct FF-to-FF race with a hold-hostile constraint.
	d := netlist.New("hold")
	clk, _ := d.AddPort("clk", netlist.Input)
	din, _ := d.AddPort("din", netlist.Input)
	prev := din.Net
	var ffs []*netlist.Cell
	for i := 0; i < 6; i++ {
		ff, err := circuits.AddCell(d, l, d.FreshName("ff"), "DFF_X1_SVT")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(ff, "CK", clk.Net); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(ff, "D", prev); err != nil {
			t.Fatal(err)
		}
		q, _ := d.AddNet(d.FreshName("q"))
		if err := d.Connect(ff, "Q", q); err != nil {
			t.Fatal(err)
		}
		prev = q
		ffs = append(ffs, ff)
	}
	cons := sta.NewConstraints()
	ck := cons.AddClock("clk", 600, clk)
	ck.HoldUncertainty = 15 // force hold violations on the shift chain
	a, err := sta.New(d, cons, sta.Config{Lib: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{A: a, Lib: l}
	if a.WorstSlack(sta.Hold) >= 0 {
		t.Skip("no hold violations with this library; model margin too large")
	}
	rep, err := FixHold(ctx, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WNSAfter <= rep.WNSBefore {
		t.Errorf("hold WNS did not improve: %v -> %v", rep.WNSBefore, rep.WNSAfter)
	}
	if ctx.A.WorstSlack(sta.Setup) < 0 {
		t.Error("hold fixing broke setup")
	}
}

func TestNoiseFixReducesViolations(t *testing.T) {
	l := lib()
	// Deterministic victim: a weak driver on a long, heavily coupled wire.
	d := netlist.New("noise")
	in, _ := d.AddPort("in", netlist.Input)
	drv, err := circuits.AddCell(d, l, "drv", "INV_X1_HVT")
	if err != nil {
		t.Fatal(err)
	}
	victim, _ := d.AddNet("victim")
	if err := d.Connect(drv, "A", in.Net); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, "Z", victim); err != nil {
		t.Fatal(err)
	}
	sink, _ := circuits.AddCell(d, l, "sink", "INV_X1_SVT")
	if err := d.Connect(sink, "A", victim); err != nil {
		t.Fatal(err)
	}
	so, _ := d.AddNet("so")
	if err := d.Connect(sink, "Z", so); err != nil {
		t.Fatal(err)
	}
	st := parasitics.Stack16()
	trees := sta.NewKeyedNetBinder(st, 1)
	trees.Fill(victim, parasitics.PointToPoint(st, 1, 600, 0.85))
	cons := sta.NewConstraints()
	a, err := sta.New(d, cons, sta.Config{Lib: l, SI: sta.DefaultSI(), Parasitics: trees})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{A: a, Lib: l}
	before := len(ctx.A.NoiseViolations())
	if before == 0 {
		t.Fatal("constructed victim not flagged; noise model inert")
	}
	if _, err := FixNoise(ctx, 60); err != nil {
		t.Fatal(err)
	}
	after := len(ctx.A.NoiseViolations())
	if after >= before {
		t.Errorf("noise violations %d -> %d", before, after)
	}
	// The fix should have used both levers: driver upsize and NDR.
	if !trees.HasNDR(victim) {
		t.Error("victim net did not receive an NDR")
	}
	if m := l.Cell(drv.TypeName); m.Drive <= 1 {
		t.Error("victim driver not upsized")
	}
}

func TestAreaRecovery(t *testing.T) {
	l := lib()
	// Healthy all-SVT design with generous period: downsizing headroom in
	// both slack and slew (testCtx's HVT-heavy mix is slew-marginal, where
	// the verified recovery rightly refuses to act).
	d := circuits.Block(l, circuits.BlockSpec{
		Name: "area", Inputs: 16, Outputs: 16, FFs: 48, Gates: 700,
		MaxDepth: 10, Seed: 21, ClockBufferLevels: 2,
	})
	cons := sta.NewConstraints()
	cons.AddClock("clk", 1400, d.Port("clk"))
	a, err := sta.New(d, cons, sta.Config{Lib: l,
		Parasitics: sta.NewNetBinder(parasitics.Stack16(), 21)})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{A: a, Lib: l}
	rep, err := AreaRecovery(ctx, 150, 300)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed == 0 {
		t.Fatal("no cells downsized despite huge slack")
	}
	if rep.AreaDelta >= 0 {
		t.Errorf("area recovery must save area, got %v", rep.AreaDelta)
	}
	if rep.WNSAfter < 0 {
		t.Errorf("area recovery broke timing: WNS %v", rep.WNSAfter)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{Pass: "vt_swap", Changed: 7, WNSBefore: -12.5, WNSAfter: -3.25}
	s := rep.String()
	if s == "" || len(s) < 20 {
		t.Errorf("report string too thin: %q", s)
	}
}

func TestDefaultOptionCtors(t *testing.T) {
	v := DefaultVtSwap()
	if v.MaxMoves <= 0 || !v.MinIAAware {
		t.Errorf("DefaultVtSwap = %+v", v)
	}
	r := DefaultResize()
	if r.MaxMoves <= 0 || r.Iterations <= 0 {
		t.Errorf("DefaultResize = %+v", r)
	}
	b := DefaultBuffer()
	if b.BufMaster == "" || b.MaxFixes <= 0 {
		t.Errorf("DefaultBuffer = %+v", b)
	}
}

func TestStoreNDRAccessors(t *testing.T) {
	st := sta.NewNetBinder(parasitics.Stack16(), 1)
	d := netlist.New("x")
	n, _ := d.AddNet("n")
	if st.HasNDR(n) {
		t.Error("fresh table has rules")
	}
	if _, ok := st.NDROf(n); ok {
		t.Error("NDROf on empty table")
	}
	st.SetNDR(n, WideSpaced)
	if r, ok := st.NDROf(n); !ok || r.Name != WideSpaced.Name {
		t.Error("rule lost")
	}
	// A net with no route stays unrouted under a rule.
	st.Refresh(d)
	if st.Tree(n) != nil {
		t.Error("nil tree should stay nil")
	}
}

// An NDR'd net keeps one scaled tree until its rule or its route changes:
// analyzers key their per-net delay cache on the pointer.
func TestStoreNDRTreeIsStable(t *testing.T) {
	route := parasitics.NewTree(0, 0)
	route.MarkSink(route.AddNode(0, 2, 3, 1, 0))
	st := sta.NewKeyedNetBinder(parasitics.Stack16(), 1)
	d := netlist.New("x")
	n, _ := d.AddNet("n")
	sink, _ := d.AddCell("sink", "INV_X1_SVT", netlist.In("A"), netlist.Out("Z"))
	if err := d.Connect(sink, "A", n); err != nil {
		t.Fatal(err)
	}
	st.Fill(n, route)
	if st.Tree(n) != route {
		t.Fatal("net without a rule must see the base tree")
	}
	st.SetNDR(n, WideSpaced)
	wide := st.Tree(n)
	if wide == route || wide.R[1] != route.R[1]*WideSpaced.R {
		t.Fatalf("rule not applied: R %v", wide.R[1])
	}
	st.Refresh(d)
	st.SetNDR(n, WideSpaced)
	if st.Tree(n) != wide {
		t.Error("same rule, same route: the scaled tree must be reused")
	}
	st.SetNDR(n, Shielded)
	shielded := st.Tree(n)
	if shielded == wide || shielded.Cc[1] != route.Cc[1]*Shielded.Cc {
		t.Error("a new rule must produce a new tree")
	}
	old := route
	route = parasitics.NewTree(0, 0)
	route.MarkSink(route.AddNode(0, 4, 3, 1, 0))
	st.Fill(n, route)
	if rerouted := st.Tree(n); rerouted == shielded || rerouted.R[1] != route.R[1]*Shielded.R {
		t.Errorf("a re-routed net must be re-scaled from its new tree, not %v's", old.R[1])
	}
}
