package sta

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
)

func testLib() *liberty.Library {
	return liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}, liberty.GenOptions{})
}

// chainSetup builds a registered chain with constraints and returns an
// analyzer that has run.
func chainSetup(t *testing.T, lib *liberty.Library, stages int, period float64, cfg Config) (*Analyzer, *netlist.Design, *Constraints) {
	t.Helper()
	d := circuits.Chain(lib, circuits.ChainSpec{Stages: stages})
	cons := NewConstraints()
	cons.AddClock("clk", period, d.Port("clk"))
	cons.InputDelay[d.Port("din")] = IODelay{Min: 0, Max: 0}
	cons.OutputDelay[d.Port("dout")] = IODelay{Clock: cons.Clocks[0], Min: 0, Max: 0}
	cfg.Lib = lib
	a, err := New(d, cons, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return a, d, cons
}

func TestSetupSlackScalesWithPeriod(t *testing.T) {
	lib := testLib()
	a1, _, _ := chainSetup(t, lib, 8, 500, Config{})
	a2, _, _ := chainSetup(t, lib, 8, 1000, Config{})
	s1 := a1.WorstSlack(Setup)
	s2 := a2.WorstSlack(Setup)
	if math.Abs((s2-s1)-500) > 1e-6 {
		t.Errorf("slack delta = %v, want exactly the period delta 500", s2-s1)
	}
}

func TestSetupSlackDecreasesWithDepth(t *testing.T) {
	lib := testLib()
	prev := math.Inf(1)
	for _, st := range []int{2, 8, 20} {
		a, _, _ := chainSetup(t, lib, st, 800, Config{})
		s := a.WorstSlack(Setup)
		if s >= prev {
			t.Errorf("slack at %d stages (%v) not below shallower chain (%v)", st, s, prev)
		}
		prev = s
	}
}

func TestArrivalMatchesHandComputation(t *testing.T) {
	// FF -> INV -> FF with lumped wires (no parasitics): the D-pin late
	// arrival must equal c2q(table) + inv delay(table) exactly.
	lib := testLib()
	d := circuits.Chain(lib, circuits.ChainSpec{Stages: 1})
	cons := NewConstraints()
	cons.AddClock("clk", 800, d.Port("clk"))
	a, err := New(d, cons, Config{Lib: lib, Wire: WireLumped})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	ff := lib.Cell(d.Cell("ff_launch").TypeName)
	inv := lib.Cell(d.Cell("g0").TypeName)
	ckSlew := cons.InputSlew
	qLoad := inv.InputCap("A")
	c2qR := ff.FF.C2QRise.Lookup(ckSlew, qLoad)
	qSlewR := ff.Arc("CK", "Q").Slew(true, ckSlew, qLoad)
	dLoad := ff.InputCap("D")
	invDelayF := inv.Arc("A", "Z").Delay(false, qSlewR, dLoad)
	wantFall := c2qR + invDelayF
	got, ok := a.PinArrival(d.Cell("ff_capture").Pin("D"), fall, late)
	if !ok {
		t.Fatal("no fall arrival at capture D")
	}
	// Also check the rise side (Q fall -> inv rise).
	c2qF := ff.FF.C2QFall.Lookup(ckSlew, qLoad)
	qSlewF := ff.Arc("CK", "Q").Slew(false, ckSlew, qLoad)
	invDelayR := inv.Arc("A", "Z").Delay(true, qSlewF, dLoad)
	wantRise := c2qF + invDelayR
	gotRise, _ := a.PinArrival(d.Cell("ff_capture").Pin("D"), rise, late)
	if math.Abs(got-wantFall) > 1e-9 {
		t.Errorf("fall arrival = %v, want %v", got, wantFall)
	}
	if math.Abs(gotRise-wantRise) > 1e-9 {
		t.Errorf("rise arrival = %v, want %v", gotRise, wantRise)
	}
}

func TestFlatOCVPessimism(t *testing.T) {
	lib := testLib()
	base, _, _ := chainSetup(t, lib, 10, 800, Config{})
	ocv, _, _ := chainSetup(t, lib, 10, 800, Config{Derate: DefaultFlatOCV()})
	if ocv.WorstSlack(Setup) >= base.WorstSlack(Setup) {
		t.Errorf("flat OCV setup slack (%v) should be below nominal (%v)",
			ocv.WorstSlack(Setup), base.WorstSlack(Setup))
	}
}

func TestAOCVLessPessimisticThanFlatOnDeepPaths(t *testing.T) {
	lib := testLib()
	flat, _, _ := chainSetup(t, lib, 16, 800, Config{Derate: DefaultFlatOCV()})
	aocv, _, _ := chainSetup(t, lib, 16, 800, Config{Derate: DefaultAOCV()})
	sf := flat.WorstSlack(Setup)
	sa := aocv.WorstSlack(Setup)
	if sa <= sf {
		t.Errorf("AOCV slack (%v) should beat flat OCV (%v) on a 16-stage path", sa, sf)
	}
}

func TestPOCVBetweenNominalAndFlat(t *testing.T) {
	lib := testLib()
	nom, _, _ := chainSetup(t, lib, 12, 800, Config{})
	pocv, _, _ := chainSetup(t, lib, 12, 800, Config{Derate: DefaultPOCV()})
	flat, _, _ := chainSetup(t, lib, 12, 800, Config{Derate: DefaultFlatOCV()})
	sn, sp, sf := nom.WorstSlack(Setup), pocv.WorstSlack(Setup), flat.WorstSlack(Setup)
	if !(sp < sn) {
		t.Errorf("POCV (%v) should be below nominal (%v)", sp, sn)
	}
	if !(sp > sf) {
		t.Errorf("POCV 3σ-RSS (%v) should be above 12-stage flat worst (%v)", sp, sf)
	}
}

func TestHoldRaceOnDirectFFPath(t *testing.T) {
	// FF.Q wired straight to FF.D: almost no data delay — the classic
	// hold-risk topology.
	lib := testLib()
	d := netlist.New("race")
	clk, _ := d.AddPort("clk", netlist.Input)
	din, _ := d.AddPort("din", netlist.Input)
	ff1, err := circuits.AddCell(d, lib, "ff1", "DFF_X1_SVT")
	if err != nil {
		t.Fatal(err)
	}
	ff2, _ := circuits.AddCell(d, lib, "ff2", "DFF_X1_SVT")
	q, _ := d.AddNet("q")
	for _, c := range []struct {
		cell *netlist.Cell
		pin  string
		net  *netlist.Net
	}{{ff1, "CK", clk.Net}, {ff2, "CK", clk.Net}, {ff1, "D", din.Net}, {ff1, "Q", q}, {ff2, "D", q}} {
		if err := d.Connect(c.cell, c.pin, c.net); err != nil {
			t.Fatal(err)
		}
	}
	q2, _ := d.AddNet("q2")
	if err := d.Connect(ff2, "Q", q2); err != nil {
		t.Fatal(err)
	}
	cons := NewConstraints()
	cons.AddClock("clk", 800, clk)
	a, err := New(d, cons, Config{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	holds := a.EndpointSlacks(Hold)
	if len(holds) == 0 {
		t.Fatal("no hold checks found")
	}
	// c2q exceeds hold in this library, so the path is safe but tight;
	// delaying the *capture* clock (useful skew on ff2) must reduce hold
	// slack at ff2's D pin by exactly the offset.
	ff2Hold := func() float64 {
		s := math.Inf(1)
		for _, e := range a.EndpointSlacks(Hold) {
			if e.Pin != nil && e.Pin.Cell == ff2 && e.Slack < s {
				s = e.Slack
			}
		}
		return s
	}
	base := ff2Hold()
	cons.ExtraCKLatency[ff2] = 50
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if got := base - ff2Hold(); math.Abs(got-50) > 1e-6 {
		t.Errorf("capture skew of 50 ps changed ff2 hold slack by %v, want 50", got)
	}
	delete(cons.ExtraCKLatency, ff2)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	// Setup slack on a near-empty path is huge.
	if s := a.WorstSlack(Setup); s < 400 {
		t.Errorf("setup slack on trivial path = %v, want large", s)
	}
}

func TestPBANeverMorePessimisticThanGBA(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	cfg := Config{
		Derate:     DefaultAOCV(),
		Parasitics: NewNetBinder(stack, 11),
	}
	lib2 := lib
	d := circuits.Block(lib2, circuits.BlockSpec{
		Name: "pba", Inputs: 12, Outputs: 12, FFs: 40, Gates: 600,
		MaxDepth: 12, Seed: 5, ClockBufferLevels: 2,
	})
	cons := NewConstraints()
	cons.AddClock("clk", 900, d.Port("clk"))
	cfg.Lib = lib2
	a, err := New(d, cons, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	paths := a.WorstPaths(Setup, 20)
	if len(paths) == 0 {
		t.Fatal("no setup paths")
	}
	improved := 0
	for _, p := range paths {
		r := a.PBA(p)
		if r.Slack < p.GBASlack-1e-9 {
			t.Errorf("PBA slack (%v) below GBA (%v) on %s", r.Slack, p.GBASlack, p.Endpoint.Name())
		}
		if r.Pessimism > 1e-9 {
			improved++
		}
	}
	if improved == 0 {
		t.Error("PBA recovered nothing on any path; expected some pessimism removal")
	}
}

func TestSIAddsPessimism(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	mk := func(si bool) *Analyzer {
		d := circuits.Block(lib, circuits.BlockSpec{
			Name: "si", Inputs: 8, Outputs: 8, FFs: 24, Gates: 300, Seed: 9, ClockBufferLevels: 2,
		})
		cons := NewConstraints()
		cons.AddClock("clk", 900, d.Port("clk"))
		cfg := Config{Lib: lib, Parasitics: NewNetBinder(stack, 4)}
		if si {
			cfg.SI = DefaultSI()
		}
		a, err := New(d, cons, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	off := mk(false)
	on := mk(true)
	if on.WorstSlack(Setup) >= off.WorstSlack(Setup) {
		t.Errorf("SI-on setup slack (%v) should be below SI-off (%v)",
			on.WorstSlack(Setup), off.WorstSlack(Setup))
	}
	if on.WorstSlack(Hold) >= off.WorstSlack(Hold) {
		t.Errorf("SI-on hold slack (%v) should be below SI-off (%v)",
			on.WorstSlack(Hold), off.WorstSlack(Hold))
	}
}

func TestMISDerateAddsPessimism(t *testing.T) {
	lib := testLib()
	base, _, _ := chainSetup(t, lib, 10, 800, Config{})
	baseNAND := circuits.Chain(lib, circuits.ChainSpec{Stages: 10, Gate: "NAND2"})
	cons := NewConstraints()
	cons.AddClock("clk", 800, baseNAND.Port("clk"))
	mk := func(mis bool) *Analyzer {
		a, err := New(baseNAND, cons, Config{Lib: lib, MIS: mis})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	off := mk(false)
	on := mk(true)
	if on.WorstSlack(Setup) >= off.WorstSlack(Setup) {
		t.Error("MIS should reduce setup slack on NAND paths")
	}
	if on.WorstSlack(Hold) >= off.WorstSlack(Hold) {
		t.Error("MIS should reduce hold slack on NAND paths")
	}
	// Inverter chains are MIS-immune.
	misInv, _, _ := chainSetup(t, lib, 10, 800, Config{MIS: true})
	if math.Abs(misInv.WorstSlack(Setup)-base.WorstSlack(Setup)) > 1e-9 {
		t.Error("MIS changed INV-chain timing; single-input cells must be immune")
	}
}

func TestCRPRCreditPositiveWithSharedClockPath(t *testing.T) {
	lib := testLib()
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "crpr", Inputs: 8, Outputs: 8, FFs: 32, Gates: 300, Seed: 13, ClockBufferLevels: 3,
	})
	cons := NewConstraints()
	cons.AddClock("clk", 900, d.Port("clk"))
	a, err := New(d, cons, Config{Lib: lib, Derate: DefaultFlatOCV()})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	any := false
	for _, e := range a.EndpointSlacks(Setup) {
		if e.CRPR > 0 {
			any = true
		}
		if e.CRPR < 0 {
			t.Fatalf("negative CRPR credit at %s", e.Name())
		}
	}
	if !any {
		t.Error("no endpoint received CRPR credit despite shared clock buffers and flat derates")
	}
}

func TestDRCViolationsDetected(t *testing.T) {
	lib := testLib()
	// A weak HVT driver with a big fanout should trip max_cap (and likely
	// max_tran at its sinks).
	d := netlist.New("drc")
	in, _ := d.AddPort("in", netlist.Input)
	drv, err := circuits.AddCell(d, lib, "drv", "INV_X1_HVT")
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
	for i := 0; i < 60; i++ {
		c, _ := circuits.AddCell(d, lib, d.FreshName("sink"), "INV_X4_SVT")
		if err := d.Connect(c, "A", big); err != nil {
			t.Fatal(err)
		}
		o, _ := d.AddNet(d.FreshName("so"))
		if err := d.Connect(c, "Z", o); err != nil {
			t.Fatal(err)
		}
	}
	cons := NewConstraints()
	a, err := New(d, cons, Config{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	viols := a.DRCViolations()
	var maxCap bool
	for _, v := range viols {
		if v.Kind == "max_cap" && v.Pin.Cell.Name == "drv" {
			maxCap = true
			if v.Value <= v.Limit {
				t.Error("reported violation does not exceed limit")
			}
		}
	}
	if !maxCap {
		t.Error("overloaded driver not reported for max_cap")
	}
}

func TestTNSAndWNSConsistency(t *testing.T) {
	lib := testLib()
	// Tight period to force violations.
	a, _, _ := chainSetup(t, lib, 20, 40, Config{})
	wns := a.WNS(Setup)
	tns := a.TNS(Setup)
	if wns >= 0 {
		t.Fatal("expected setup violations at a 40 ps period")
	}
	if tns > wns {
		t.Errorf("TNS (%v) must be <= WNS (%v)", tns, wns)
	}
	worst := a.WorstSlack(Setup)
	if math.Abs(worst-wns) > 1e-9 {
		t.Errorf("WorstSlack (%v) != WNS (%v) when violating", worst, wns)
	}
}

func TestPinSlackConsistentWithEndpoint(t *testing.T) {
	lib := testLib()
	for _, skew := range []float64{0, 50} {
		a, d, cons := chainSetup(t, lib, 10, 400, Config{})
		if skew != 0 {
			cons.ExtraCKLatency[d.Cell("ff_launch")] = skew
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
		}
		eps := a.EndpointSlacks(Setup)
		if len(eps) == 0 {
			t.Fatal("no endpoints")
		}
		worst := eps[0]
		if worst.Pin == nil {
			t.Skip("worst endpoint is a port")
		}
		ps := a.PinSetupSlack(worst.Pin)
		if math.Abs(ps-worst.Slack) > 1e-6 {
			t.Errorf("skew %v: pin slack (%v) != endpoint slack (%v)", skew, ps, worst.Slack)
		}
		// Single path: every chain gate, and the clock port that launches
		// it, sees the endpoint's slack.
		for i := 0; i < 10; i++ {
			g := d.Cell("g" + string(rune('0'+i)))
			cs := a.CellSetupSlack(g)
			if math.Abs(cs-worst.Slack) > 1 {
				t.Errorf("skew %v: chain gate %s slack %v != endpoint %v", skew, g.Name, cs, worst.Slack)
			}
		}
		if cs := a.PortSetupSlack(d.Port("clk")); math.Abs(cs-worst.Slack) > 1e-6 {
			t.Errorf("skew %v: clock port slack %v != endpoint %v", skew, cs, worst.Slack)
		}
	}
}

// TestUsefulSkewReachesRequiredTimes: the required-time pull charges a clock
// pin's net edge the useful-skew offset the forward pass added to it, so the
// port driving a skewed flop reports that flop's slack — after a full Run and
// after an incremental Update alike.
func TestUsefulSkewReachesRequiredTimes(t *testing.T) {
	lib := testLib()
	a, d, cons := chainSetup(t, lib, 6, 400, Config{})
	launch := d.Cell("ff_launch")
	cons.ExtraCKLatency[launch] = 50
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		port, pin := a.PortSetupSlack(d.Port("clk")), a.PinSetupSlack(launch.Pin("CK"))
		if math.Abs(port-pin) > 1e-9 {
			t.Errorf("%s: clk port slack %v != ff_launch/CK slack %v", when, port, pin)
		}
		if wns := a.WorstSlack(Setup); math.Abs(pin-wns) > 1e-9 {
			t.Errorf("%s: ff_launch/CK slack %v != WNS %v", when, pin, wns)
		}
	}
	check("after Run")
	g := d.Cell("g3")
	g.SetType(liberty.CellName("INV", 2, liberty.SVT))
	a.InvalidateCell(g)
	if err := a.Update(); err != nil {
		t.Fatal(err)
	}
	check("after Update")
}

// clockCellDerate slows clock-network cells only: a Derater that reads the
// clockPath flag no shipped one does.
type clockCellDerate struct{ NoDerate }

func (clockCellDerate) Factor(kind DelayKind, clockPath, late bool, depth int) float64 {
	if kind == CellDelay && clockPath {
		return 1.25
	}
	return 1
}

// TestPBAAppliesTheGBADelayRule: on a single-path chain there is no merged
// slew or depth to recover, so PBA must reproduce the GBA arrival exactly —
// including which arcs (the launch flop's CK→Q) count as clock-path.
func TestPBAAppliesTheGBADelayRule(t *testing.T) {
	a, _, _ := chainSetup(t, testLib(), 6, 400, Config{Derate: clockCellDerate{}})
	paths := a.WorstPaths(Setup, 1)
	if len(paths) == 0 {
		t.Fatal("no setup path")
	}
	if r := a.PBA(paths[0]); math.Abs(r.Pessimism) > 1e-9 {
		t.Errorf("PBA pessimism on a single-path chain = %v, want 0 (GBA %v, PBA %v)",
			r.Pessimism, r.GBAArrival, r.PBAArrival)
	}
}

func TestWorstPathStructure(t *testing.T) {
	lib := testLib()
	a, _, _ := chainSetup(t, lib, 6, 800, Config{})
	paths := a.WorstPaths(Setup, 1)
	if len(paths) != 1 {
		t.Fatal("no worst path")
	}
	p := paths[0]
	// Root must be the clock port, endpoint the capture FF D pin or dout.
	if p.Steps[0].Name != "port:clk" {
		t.Errorf("path root = %s, want port:clk", p.Steps[0].Name)
	}
	if p.Depth() < 7 { // c2q + 6 gates
		t.Errorf("path depth = %d, want >= 7", p.Depth())
	}
	// Arrivals along the path must be nondecreasing.
	for i := 1; i < len(p.Steps); i++ {
		if p.Steps[i].Arrival < p.Steps[i-1].Arrival-1e-9 {
			t.Errorf("arrival decreasing at step %d", i)
		}
	}
}

func TestCombinationalCycleRejected(t *testing.T) {
	lib := testLib()
	d := netlist.New("cyc")
	a1, _ := circuits.AddCell(d, lib, "i1", "INV_X1_SVT")
	a2, _ := circuits.AddCell(d, lib, "i2", "INV_X1_SVT")
	n1, _ := d.AddNet("n1")
	n2, _ := d.AddNet("n2")
	for _, c := range []struct {
		cell *netlist.Cell
		pin  string
		net  *netlist.Net
	}{{a1, "Z", n1}, {a2, "A", n1}, {a2, "Z", n2}, {a1, "A", n2}} {
		if err := d.Connect(c.cell, c.pin, c.net); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(d, NewConstraints(), Config{Lib: lib}); err == nil {
		t.Error("combinational cycle accepted")
	}
}

func TestUnknownMasterRejected(t *testing.T) {
	lib := testLib()
	d := netlist.New("um")
	if _, err := d.AddCell("u", "GHOST", netlist.In("A"), netlist.Out("Z")); err != nil {
		t.Fatal(err)
	}
	if _, err := New(d, NewConstraints(), Config{Lib: lib}); err == nil {
		t.Error("unknown master accepted")
	}
}

// A clock period that is not a positive finite number is refused at New, by
// the clock's name, before it can time anything.
func TestBadClockPeriodRejected(t *testing.T) {
	lib := testLib()
	d := circuits.Chain(lib, circuits.ChainSpec{Stages: 3})
	for _, period := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		cons := NewConstraints()
		cons.AddClock("core_clk", period, d.Port("clk"))
		_, err := New(d, cons, Config{Lib: lib})
		if err == nil || !strings.Contains(err.Error(), `clock "core_clk"`) {
			t.Errorf("period %v: want an error naming the clock, got %v", period, err)
		}
	}
}

// A shared topology is adopted whatever type name a cell's master goes by,
// so long as the master has the arc shape and sequential clock pins the
// graph was built with: a clone whose cells were upsized to types the
// original never used adopts it, one whose cell became another function
// builds its own. Either way it times like a fresh analyzer.
func TestTopologyAdoptedAcrossSameShapeRetype(t *testing.T) {
	lib := testLib()
	a1, d, _ := chainSetup(t, lib, 6, 800, Config{Lib: lib})
	for _, c := range []struct {
		name   string
		retype map[string]string
		shared bool
	}{
		{"upsized inverter", map[string]string{"g2": "INV_X8_LVT"}, true},
		{"upsized flip-flop", map[string]string{"ff_capture": "DFF_X4_SVT"}, true},
		{"inverter to NAND2", map[string]string{"g2": "NAND2_X1_SVT"}, false},
	} {
		d2 := d.Clone()
		for cell, to := range c.retype {
			for _, orig := range d.Cells {
				if orig.TypeName == to {
					t.Fatalf("%s: %s is already in the design", c.name, to)
				}
			}
			d2.Cell(cell).SetType(to)
		}
		cons := NewConstraints()
		cons.AddClock("clk", 800, d2.Port("clk"))
		a2, err := New(d2, cons, Config{Lib: lib, Topology: a1.Topology()})
		if err != nil {
			t.Fatal(err)
		}
		if a2.SharedTopology() != c.shared {
			t.Errorf("%s: adopted the shared topology = %v, want %v", c.name, a2.SharedTopology(), c.shared)
		}
		fresh, err := New(d2.Clone(), cons, Config{Lib: lib})
		if err != nil {
			t.Fatal(err)
		}
		if err := a2.Run(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := a2.Summary(Setup), fresh.Summary(Setup); got != want {
			t.Errorf("%s: setup summary %+v, a fresh analyzer's %+v", c.name, got, want)
		}
	}
}

// wrapped is a Derater this package does not define: New leaves its
// values to it.
type wrapped struct{ Derater }

// A derater of this package's models that no delay could be derated by is
// refused at New: a multiplicative factor that is not a positive finite
// number, or a sigma term that is not a non-negative finite one. Sound
// values, zero sigma terms and derater types New does not know are taken.
func TestBadDerateRejected(t *testing.T) {
	lib := testLib()
	d := circuits.Chain(lib, circuits.ChainSpec{Stages: 3})
	cons := NewConstraints()
	cons.AddClock("clk", 500, d.Port("clk"))
	nan, inf := math.NaN(), math.Inf(1)
	aocv := func(edit func(a *AOCV)) AOCV {
		a := DefaultAOCV()
		a.LateByDepth = append([]float64(nil), a.LateByDepth...)
		edit(&a)
		return a
	}
	flat := func(edit func(f *FlatOCV)) FlatOCV {
		f := DefaultFlatOCV()
		edit(&f)
		return f
	}
	for _, c := range []struct {
		name string
		d    Derater
		ok   bool
	}{
		{"default flat", DefaultFlatOCV(), true},
		{"default AOCV", DefaultAOCV(), true},
		{"default POCV", DefaultPOCV(), true},
		{"default LVF", DefaultLVF(), true},
		{"zero-sigma POCV", POCV{}, true},
		{"zero-sigma LVF", LVF{}, true},
		{"AOCV without tables", AOCV{NetLate: 1, NetEarly: 1}, true},
		{"unknown type", wrapped{FlatOCV{CellLate: -1}}, true},
		{"flat zero cell early", flat(func(f *FlatOCV) { f.CellEarly = 0 }), false},
		{"flat negative cell late", flat(func(f *FlatOCV) { f.CellLate = -1.08 }), false},
		{"flat NaN net late", flat(func(f *FlatOCV) { f.NetLate = nan }), false},
		{"flat Inf net early", flat(func(f *FlatOCV) { f.NetEarly = inf }), false},
		{"AOCV zero table entry", aocv(func(a *AOCV) { a.LateByDepth[3] = 0 }), false},
		{"AOCV NaN table entry", aocv(func(a *AOCV) { a.EarlyByDepth = []float64{0.9, nan} }), false},
		{"AOCV negative net factor", aocv(func(a *AOCV) { a.NetEarly = -0.96 }), false},
		{"AOCV Inf net factor", aocv(func(a *AOCV) { a.NetLate = inf }), false},
		{"POCV negative fraction", POCV{SigmaFrac: -0.04, N: 3}, false},
		{"POCV NaN multiple", POCV{SigmaFrac: 0.04, N: nan}, false},
		{"LVF Inf multiple", LVF{N: inf, Fallback: 0.04}, false},
		{"LVF negative fallback", LVF{N: 3, Fallback: -0.04}, false},
	} {
		_, err := New(d, cons, Config{Lib: lib, Derate: c.d})
		if c.ok && err != nil {
			t.Errorf("%s: refused: %v", c.name, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "sta: sta.")) {
			t.Errorf("%s: want an error naming the derater type, got %v", c.name, err)
		}
	}
}

func TestNoiseViolationsOnHighCouplingNet(t *testing.T) {
	lib := testLib()
	d := netlist.New("noise")
	in, _ := d.AddPort("in", netlist.Input)
	drv, _ := circuits.AddCell(d, lib, "drv", "INV_X1_HVT")
	victim, _ := d.AddNet("victim")
	if err := d.Connect(drv, "A", in.Net); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, "Z", victim); err != nil {
		t.Fatal(err)
	}
	sink, _ := circuits.AddCell(d, lib, "sink", "INV_X1_SVT")
	if err := d.Connect(sink, "A", victim); err != nil {
		t.Fatal(err)
	}
	so, _ := d.AddNet("so")
	if err := d.Connect(sink, "Z", so); err != nil {
		t.Fatal(err)
	}
	// Parasitics: a long, heavily coupled victim wire.
	st := parasitics.Stack16()
	trees := NewKeyedNetBinder(st, 1)
	trees.Fill(victim, parasitics.PointToPoint(st, 1, 600, 0.85))
	cons := NewConstraints()
	a, err := New(d, cons, Config{Lib: lib, SI: DefaultSI(), Parasitics: trees})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	viols := a.NoiseViolations()
	found := false
	for _, v := range viols {
		if v.Net == victim {
			found = true
			if v.Bump <= v.Threshold {
				t.Error("reported noise bump does not exceed threshold")
			}
		}
	}
	if !found {
		t.Error("heavily coupled weak-driver net not flagged for noise")
	}
}

func TestMulticycleSetup(t *testing.T) {
	lib := testLib()
	a, d, cons := chainSetup(t, lib, 20, 40, Config{})
	base := a.WorstSlack(Setup)
	if base >= 0 {
		t.Fatal("expected a violation to relax")
	}
	cons.MulticycleSetup[d.Cell("ff_capture")] = 2
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	relaxed := a.WorstSlack(Setup)
	// Note the chain also has a dout port endpoint; the FF endpoint gets a
	// full extra period.
	improved := relaxed - base
	if improved <= 0 {
		t.Fatalf("multicycle gave no relief: %v -> %v", base, relaxed)
	}
	// The FF endpoint specifically must gain exactly one period.
	var ffSlack func() float64
	ffSlack = func() float64 {
		for _, e := range a.EndpointSlacks(Setup) {
			if e.Pin != nil && e.Pin.Cell.Name == "ff_capture" {
				return e.Slack
			}
		}
		return math.Inf(1)
	}
	withMC := ffSlack()
	cons.MulticycleSetup = map[*netlist.Cell]int{}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	withoutMC := ffSlack()
	if math.Abs((withMC-withoutMC)-40) > 1e-9 {
		t.Errorf("multicycle relief = %v, want exactly one period (40)", withMC-withoutMC)
	}
	// Hold must be unaffected by multicycle setup.
	cons.MulticycleSetup[d.Cell("ff_capture")] = 2
	holdBefore := a.WorstSlack(Hold)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.WorstSlack(Hold)-holdBefore) > 1e-9 {
		t.Error("multicycle setup changed hold timing")
	}
}

func TestFalsePathFromPort(t *testing.T) {
	lib := testLib()
	// Chain with side inputs: din feeds both the launch FF and (on NAND
	// chains) the side pins; declaring din false removes those paths.
	d := circuits.Chain(lib, circuits.ChainSpec{Stages: 10, Gate: "NAND2"})
	cons := NewConstraints()
	cons.AddClock("clk", 100, d.Port("clk"))
	cons.InputDelay[d.Port("din")] = IODelay{Min: 0, Max: 60}
	a, err := New(d, cons, Config{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	base := a.WorstSlack(Setup)
	cons.FalseFrom[d.Port("din")] = true
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	relaxed := a.WorstSlack(Setup)
	if relaxed <= base {
		t.Errorf("false path gave no relief: %v -> %v", base, relaxed)
	}
	// The clock-launched register path must still be checked.
	found := false
	for _, e := range a.EndpointSlacks(Setup) {
		if e.Pin != nil && e.Pin.Cell.Name == "ff_capture" {
			found = true
		}
	}
	if !found {
		t.Error("register path vanished along with the false path")
	}
}

func TestClockGatingChecks(t *testing.T) {
	lib := testLib()
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "gated", Inputs: 8, Outputs: 8, FFs: 48, Gates: 300,
		Seed: 91, ClockBufferLevels: 2, ClockGating: true,
	})
	// At least one ICG must exist.
	icgs := 0
	for _, c := range d.Cells {
		if lib.Cell(c.TypeName).Gate != nil {
			icgs++
		}
	}
	if icgs == 0 {
		t.Fatal("no clock gates inserted")
	}
	cons := NewConstraints()
	cons.AddClock("clk", 800, d.Port("clk"))
	cons.InputDelay[d.Port("in0")] = IODelay{Min: 40, Max: 120}
	a, err := New(d, cons, Config{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	// Gating endpoints appear in both checks.
	countEN := func(kind CheckKind) int {
		n := 0
		for _, e := range a.EndpointSlacks(kind) {
			if e.Pin != nil && e.Pin.Name == "EN" {
				n++
			}
		}
		return n
	}
	if countEN(Setup) == 0 || countEN(Hold) == 0 {
		t.Fatalf("no gating checks reported: setup %d hold %d", countEN(Setup), countEN(Hold))
	}
	// Flip-flops behind gates still receive clocks (arrivals at their CK).
	for _, c := range d.Cells {
		m := lib.Cell(c.TypeName)
		if m.FF == nil {
			continue
		}
		ck := c.Pin(m.FF.Clock)
		if ck.Net != nil && ck.Net.Driver != nil &&
			lib.Cell(ck.Net.Driver.Cell.TypeName).Gate != nil {
			if _, ok := a.PinArrival(ck, 0, 1); !ok {
				t.Fatalf("FF %s behind a clock gate has no clock arrival", c.Name)
			}
			// The gated clock arrives later than the gate's own CK (the
			// ICG adds insertion delay).
			gateCK := ck.Net.Driver.Cell.Pin("CK")
			tg, _ := a.PinArrival(gateCK, 0, 1)
			tf, _ := a.PinArrival(ck, 0, 1)
			if tf <= tg {
				t.Errorf("gated clock (%v) not later than gate input (%v)", tf, tg)
			}
			return // one verified instance suffices
		}
	}
	t.Fatal("no FF found behind a clock gate")
}

func TestGatingEnableSlackRespondsToArrival(t *testing.T) {
	lib := testLib()
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "gated2", Inputs: 8, Outputs: 8, FFs: 32, Gates: 200,
		Seed: 92, ClockBufferLevels: 1, ClockGating: true,
	})
	slackAt := func(maxArr float64) float64 {
		cons := NewConstraints()
		cons.AddClock("clk", 800, d.Port("clk"))
		cons.InputDelay[d.Port("in0")] = IODelay{Min: 0, Max: maxArr}
		a, err := New(d, cons, Config{Lib: lib})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		worst := math.Inf(1)
		for _, e := range a.EndpointSlacks(Setup) {
			if e.Pin != nil && e.Pin.Name == "EN" && e.Slack < worst {
				worst = e.Slack
			}
		}
		return worst
	}
	s1 := slackAt(50)
	s2 := slackAt(350)
	if math.Abs((s1-s2)-300) > 1e-6 {
		t.Errorf("EN setup slack should track enable arrival 1:1: %v vs %v", s1, s2)
	}
}

func TestSTAThroughLibertyRoundTrip(t *testing.T) {
	// Generate a library, serialize it to Liberty text, parse it back, and
	// verify the analyzer produces identical timing — the interchange
	// format carries everything STA consumes.
	orig := testLib()
	var buf bytes.Buffer
	if err := liberty.WriteLib(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := liberty.ParseLib(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := circuits.Block(orig, circuits.BlockSpec{
		Name: "rt", Inputs: 8, Outputs: 8, FFs: 24, Gates: 300,
		Seed: 77, ClockBufferLevels: 2, ClockGating: true,
	})
	run := func(lib *liberty.Library) (float64, float64) {
		cons := NewConstraints()
		cons.AddClock("clk", 700, d.Port("clk"))
		a, err := New(d, cons, Config{Lib: lib, Derate: DefaultFlatOCV()})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a.WorstSlack(Setup), a.WorstSlack(Hold)
	}
	s1, h1 := run(orig)
	s2, h2 := run(parsed)
	if math.Abs(s1-s2) > 1e-9 || math.Abs(h1-h2) > 1e-9 {
		t.Errorf("timing changed through Liberty round trip: setup %v vs %v, hold %v vs %v",
			s1, s2, h1, h2)
	}
}
