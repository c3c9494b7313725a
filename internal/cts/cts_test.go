package cts

import (
	"math"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
)

func lib() *liberty.Library {
	return liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}, liberty.GenOptions{})
}

// flatClockDesign builds a block whose clock is a flat net (no buffers).
func flatClockDesign(l *liberty.Library, ffs int, seed int64) *netlist.Design {
	return circuits.Block(l, circuits.BlockSpec{
		Name: "cts", Inputs: 12, Outputs: 12, FFs: ffs, Gates: ffs * 6,
		Seed: seed, ClockBufferLevels: 0,
	})
}

func analyze(t *testing.T, d *netlist.Design, l *liberty.Library, period float64) (*sta.Analyzer, *sta.Constraints) {
	t.Helper()
	cons := sta.NewConstraints()
	cons.AddClock("clk", period, d.Port("clk"))
	a, err := sta.New(d, cons, sta.Config{
		Lib:        l,
		Parasitics: sta.NewNetBinder(parasitics.Stack16(), 21),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return a, cons
}

func TestSynthesizeStructure(t *testing.T) {
	l := lib()
	d := flatClockDesign(l, 96, 31)
	clk := d.Port("clk")
	before := len(clk.Net.Loads)
	if before != 96 {
		t.Fatalf("flat clock drives %d, want 96", before)
	}
	info, err := Synthesize(d, l, clk, Options{MaxFanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if errs := d.Validate(); len(errs) != 0 {
		t.Fatalf("netlist invalid after CTS: %v", errs[0])
	}
	if info.Buffers == 0 || info.Levels < 2 {
		t.Errorf("tree too shallow: %+v", info)
	}
	// Root fanout now bounded.
	if got := len(clk.Net.Loads); got > 8 {
		t.Errorf("root fanout %d exceeds max 8", got)
	}
	// Every FF still clocked (transitively).
	a, _ := analyze(t, d, l, 900)
	dels := InsertionDelays(a, l)
	if len(dels) != 96 {
		t.Fatalf("only %d FFs have clock arrivals", len(dels))
	}
	for ff, ins := range dels {
		if ins <= 0 {
			t.Errorf("FF %s has non-positive insertion delay %v", ff.Name, ins)
		}
	}
}

func TestSynthesizeSmallClockNoop(t *testing.T) {
	l := lib()
	d := flatClockDesign(l, 6, 32)
	info, err := Synthesize(d, l, d.Port("clk"), Options{MaxFanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if info.Buffers != 0 {
		t.Errorf("small clock got %d buffers", info.Buffers)
	}
}

func TestSkewComputation(t *testing.T) {
	l := lib()
	d := flatClockDesign(l, 64, 33)
	if _, err := Synthesize(d, l, d.Port("clk"), Options{MaxFanout: 6}); err != nil {
		t.Fatal(err)
	}
	a, _ := analyze(t, d, l, 900)
	dels := InsertionDelays(a, l)
	min, max, skew := Skew(dels)
	if !(min > 0 && max >= min && skew == max-min) {
		t.Errorf("skew stats inconsistent: %v %v %v", min, max, skew)
	}
	// Balanced tree: skew should be a small fraction of insertion delay.
	if skew > 0.5*max {
		t.Errorf("skew %v too large vs insertion %v for a balanced tree", skew, max)
	}
	if _, _, s := Skew(nil); s != 0 {
		t.Error("empty skew not zero")
	}
}

func TestMCMMSkewAcrossCorners(t *testing.T) {
	l1 := lib()
	lSlow := liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.SSG, Voltage: 0.72, Temp: 125}, liberty.GenOptions{})
	d := flatClockDesign(l1, 48, 34)
	if _, err := Synthesize(d, l1, d.Port("clk"), Options{MaxFanout: 6}); err != nil {
		t.Fatal(err)
	}
	mk := func(l *liberty.Library) *sta.Analyzer {
		cons := sta.NewConstraints()
		cons.AddClock("clk", 900, d.Port("clk"))
		a, err := sta.New(d, cons, sta.Config{Lib: l, Parasitics: sta.NewNetBinder(parasitics.Stack16(), 3)})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	perCorner, cross := MCMMSkew([]*sta.Analyzer{mk(l1), mk(lSlow)}, l1)
	if len(perCorner) != 2 {
		t.Fatal("per-corner skew missing")
	}
	// The slow corner stretches the tree: its skew is amplified, and the
	// same FF sees materially different insertion delay across corners —
	// the MCMM clock problem ("each of hundreds of scenarios has different
	// clock insertion delay", paper §1.2).
	if perCorner[1] <= perCorner[0] {
		t.Errorf("slow-corner skew (%v) should exceed typical (%v)", perCorner[1], perCorner[0])
	}
	if cross <= 0 {
		t.Errorf("cross-corner insertion spread = %v, want positive", cross)
	}
}

func TestUsefulSkewImprovesWNS(t *testing.T) {
	l := lib()
	// Chain of two register stages with unbalanced logic: stage 1 deep,
	// stage 2 shallow — the textbook useful-skew opportunity.
	d := netlist.New("uskew")
	clk := mustPort(t, d, "clk", netlist.Input)
	din := mustPort(t, d, "din", netlist.Input)
	dout := mustPort(t, d, "dout", netlist.Output)
	ffA := mustCell(t, d, l, "ffA", "DFF_X1_SVT")
	ffB := mustCell(t, d, l, "ffB", "DFF_X1_SVT")
	ffC := mustCell(t, d, l, "ffC", "DFF_X1_SVT")
	connect(t, d, ffA, "CK", clk.Net)
	connect(t, d, ffB, "CK", clk.Net)
	connect(t, d, ffC, "CK", clk.Net)
	connect(t, d, ffA, "D", din.Net)
	// Deep stage A->B: 14 inverters.
	prev := mustNet(t, d, "qa")
	connect(t, d, ffA, "Q", prev)
	for i := 0; i < 14; i++ {
		g := mustCell(t, d, l, d.FreshName("g1"), "INV_X1_HVT")
		connect(t, d, g, "A", prev)
		n := mustNet(t, d, d.FreshName("n1"))
		connect(t, d, g, "Z", n)
		prev = n
	}
	connect(t, d, ffB, "D", prev)
	// Shallow stage B->C: 2 inverters.
	prev2 := mustNet(t, d, "qb")
	connect(t, d, ffB, "Q", prev2)
	for i := 0; i < 2; i++ {
		g := mustCell(t, d, l, d.FreshName("g2"), "INV_X1_HVT")
		connect(t, d, g, "A", prev2)
		n := mustNet(t, d, d.FreshName("n2"))
		connect(t, d, g, "Z", n)
		prev2 = n
	}
	connect(t, d, ffC, "D", prev2)
	connect(t, d, ffC, "Q", dout.Net)

	cons := sta.NewConstraints()
	// Period chosen so the deep stage violates and the shallow one has
	// plenty of slack.
	deepDelay := 14 * 6.0
	cons.AddClock("clk", deepDelay*0.85, clk)
	a, err := sta.New(d, cons, sta.Config{Lib: l})
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler reads the slacks it is handed: timing them is the
	// caller's part.
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := ScheduleUsefulSkew(a, l, DefaultUsefulSkew())
	if err != nil {
		t.Fatal(err)
	}
	if res.WNSAfter <= res.WNSBefore {
		t.Errorf("useful skew did not improve WNS: %v -> %v", res.WNSBefore, res.WNSAfter)
	}
	if res.Adjusted == 0 {
		t.Error("no FF adjusted")
	}
	if res.HoldWNSAfter < res.HoldWNSBefore-1e-9 {
		debugHoldState(t, a, res)
		t.Errorf("useful skew degraded hold WNS: %v -> %v", res.HoldWNSBefore, res.HoldWNSAfter)
	}
	// ffB (between deep and shallow stages) must be the delayed one.
	if res.Offsets[ffB] <= 0 {
		t.Errorf("ffB offset = %v, want positive", res.Offsets[ffB])
	}
}

func TestJitterModel(t *testing.T) {
	j := DefaultJitter()
	if j.C2CMargin() >= j.FlatMargin() {
		t.Errorf("cycle-to-cycle margin (%v) should beat flat (%v)", j.C2CMargin(), j.FlatMargin())
	}
	if j.Recovered() <= 0 {
		t.Error("no margin recovered")
	}
	if math.Abs(j.FlatMargin()-j.C2CMargin()-j.Recovered()) > 1e-12 {
		t.Error("Recovered inconsistent")
	}
	// No low-frequency content: C2C can exceed a single edge's share but
	// must still drop the supply correlation credit.
	j2 := j
	j2.LowFreqFrac = 0
	if j2.C2CMargin() >= j2.FlatMargin()+1e-12 {
		t.Errorf("even with no LF content, supply credit should help: %v vs %v",
			j2.C2CMargin(), j2.FlatMargin())
	}
}

// Test helpers.
func mustPort(t *testing.T, d *netlist.Design, name string, dir netlist.PinDir) *netlist.Port {
	t.Helper()
	p, err := d.AddPort(name, dir)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustNet(t *testing.T, d *netlist.Design, name string) *netlist.Net {
	t.Helper()
	n, err := d.AddNet(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustCell(t *testing.T, d *netlist.Design, l *liberty.Library, name, master string) *netlist.Cell {
	t.Helper()
	c, err := circuits.AddCell(d, l, name, master)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func connect(t *testing.T, d *netlist.Design, c *netlist.Cell, pin string, n *netlist.Net) {
	t.Helper()
	if err := d.Connect(c, pin, n); err != nil {
		t.Fatal(err)
	}
}

// debugHold prints hold endpoints after useful skew (enabled manually).
func debugHoldState(t *testing.T, a *sta.Analyzer, res UsefulSkewResult) {
	t.Helper()
	for _, e := range a.EndpointSlacks(sta.Hold) {
		if e.Slack < 20 {
			off := 0.0
			if e.Pin != nil {
				off = res.Offsets[e.Pin.Cell]
			}
			t.Logf("hold %s slack=%.2f crpr=%.2f offset=%.2f", e.Name(), e.Slack, e.CRPR, off)
		}
	}
}

func TestSynthesizeUnknownBuffer(t *testing.T) {
	l := lib()
	d := flatClockDesign(l, 32, 99)
	if _, err := Synthesize(d, l, d.Port("clk"), Options{BufMaster: "GHOST_X1_SVT"}); err == nil {
		t.Error("unknown buffer master accepted")
	}
}
