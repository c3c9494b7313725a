package liberty

import (
	"sort"
	"testing"
)

func testLib(t *testing.T) *Library {
	t.Helper()
	return Generate(Node16, PVT{Process: TT, Voltage: 0.8, Temp: 85}, GenOptions{})
}

func TestGenerateCatalog(t *testing.T) {
	lib := testLib(t)
	// Combinational families + DFF + ICG per drive/Vt point.
	wantCells := (len(CombFunctions) + 2) * len(DefaultDrives) * len(VtClasses)
	if got := len(lib.Cells()); got != wantCells {
		t.Errorf("library has %d cells, want %d", got, wantCells)
	}
	// Spot-check naming and lookup.
	c := lib.Cell("NAND2_X2_SVT")
	if c == nil {
		t.Fatal("NAND2_X2_SVT missing")
	}
	if c.Function != "NAND2" || c.Drive != 2 || c.Vt != SVT {
		t.Errorf("cell metadata wrong: %+v", c)
	}
	toZ := 0
	for _, a := range c.Arcs {
		if a.To == "Z" {
			toZ++
		}
	}
	if toZ != 2 {
		t.Errorf("NAND2 should have 2 arcs to Z, got %d", toZ)
	}
}

// TestGeneratedTablesValid: every table the generator emits, at every
// node, passes the check a parsed or pack-restored table must pass.
func TestGeneratedTablesValid(t *testing.T) {
	for _, tp := range []TechParams{Node16, Node28, Node65} {
		lib := Generate(tp, PVT{Process: TT, Voltage: tp.VDDNominal, Temp: 85}, GenOptions{})
		names := make([]string, 0, len(lib.Cells()))
		for n := range lib.Cells() {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			c := lib.Cell(n)
			var tables []*Table2D
			for i := range c.Arcs {
				a := &c.Arcs[i]
				tables = append(tables, a.DelayRise, a.DelayFall, a.SlewRise, a.SlewFall, a.SigmaRise, a.SigmaFall,
					a.SigmaEarlyRise, a.SigmaEarlyFall, a.SigmaLateRise, a.SigmaLateFall)
			}
			if c.FF != nil {
				tables = append(tables, c.FF.SetupRise, c.FF.SetupFall, c.FF.HoldRise, c.FF.HoldFall, c.FF.C2QRise, c.FF.C2QFall)
			}
			if c.Gate != nil {
				tables = append(tables, c.Gate.SetupRise, c.Gate.HoldRise)
			}
			for i, tb := range tables {
				if tb == nil {
					continue
				}
				if err := tb.Validate(); err != nil {
					t.Fatalf("%s %s table %d: %v", tp.Name, n, i, err)
				}
			}
		}
	}
}

func TestDelayMonotoneInLoad(t *testing.T) {
	lib := testLib(t)
	c := lib.Cell("INV_X1_SVT")
	arc := c.Arc("A", "Z")
	slew := 20.0
	prev := -1.0
	for load := 0.5; load < 120; load *= 2 {
		d := arc.Delay(true, slew, load)
		if d <= prev {
			t.Fatalf("delay not increasing with load at %v fF: %v <= %v", load, d, prev)
		}
		prev = d
	}
}

func TestDriveLadderSpeedsUp(t *testing.T) {
	lib := testLib(t)
	load := 20.0
	slew := 20.0
	var prev float64 = -1
	for _, drive := range DefaultDrives {
		c := lib.Cell(CellName("INV", drive, SVT))
		d := c.Arc("A", "Z").Delay(false, slew, load)
		if prev > 0 && d >= prev {
			t.Fatalf("X%g not faster than previous drive: %v >= %v", drive, d, prev)
		}
		prev = d
	}
}

func TestVtLadderDelayAndLeakage(t *testing.T) {
	lib := testLib(t)
	load, slew := 10.0, 20.0
	dLVT := lib.Cell("INV_X1_LVT").Arc("A", "Z").Delay(false, slew, load)
	dSVT := lib.Cell("INV_X1_SVT").Arc("A", "Z").Delay(false, slew, load)
	dHVT := lib.Cell("INV_X1_HVT").Arc("A", "Z").Delay(false, slew, load)
	if !(dLVT < dSVT && dSVT < dHVT) {
		t.Errorf("Vt delay ordering broken: %v %v %v", dLVT, dSVT, dHVT)
	}
	lLVT := lib.Cell("INV_X1_LVT").Leakage
	lHVT := lib.Cell("INV_X1_HVT").Leakage
	if lLVT <= lHVT {
		t.Errorf("LVT leakage %v should exceed HVT %v", lLVT, lHVT)
	}
}

func TestVariantLookup(t *testing.T) {
	lib := testLib(t)
	c := lib.Cell("NAND2_X1_HVT")
	v := lib.Variant(c, 4, LVT)
	if v == nil || v.Name != "NAND2_X4_LVT" {
		t.Fatalf("Variant lookup = %v", v)
	}
	if lib.Variant(c, 3, LVT) != nil {
		t.Error("nonexistent drive should return nil")
	}
	drives := lib.Drives("NAND2")
	if len(drives) != len(DefaultDrives) {
		t.Fatalf("drive ladder = %v", drives)
	}
	for i := 1; i < len(drives); i++ {
		if drives[i] <= drives[i-1] {
			t.Fatal("drive ladder not ascending")
		}
	}
}

func TestDFFSpec(t *testing.T) {
	lib := testLib(t)
	ff := lib.Cell("DFF_X1_SVT")
	if ff == nil || !ff.IsSequential() {
		t.Fatal("DFF missing or not sequential")
	}
	if !ff.Pin("CK").IsClock {
		t.Error("CK pin not marked clock")
	}
	spec := ff.FF
	su := spec.SetupRise.Lookup(20, 20)
	if su <= 0 {
		t.Errorf("setup = %v, want positive", su)
	}
	// Setup grows with data slew.
	if spec.SetupRise.Lookup(100, 20) <= su {
		t.Error("setup should grow with data slew")
	}
	// Hold shrinks with data slew.
	if spec.HoldRise.Lookup(100, 20) >= spec.HoldRise.Lookup(20, 20) {
		t.Error("hold should shrink with data slew")
	}
	// CK->Q exposed as a regular arc.
	if ff.Arc("CK", "Q") == nil {
		t.Error("CK->Q arc missing")
	}
}

func TestCornerLibrariesOrdering(t *testing.T) {
	// The same generator at SS/TT/FF corners must produce slow/typ/fast
	// libraries — this is what MCMM signoff relies on.
	mk := func(pc ProcessCorner, v, temp float64) float64 {
		lib := Generate(Node16, PVT{Process: pc, Voltage: v, Temp: temp}, GenOptions{})
		return lib.Cell("INV_X1_SVT").Arc("A", "Z").Delay(false, 20, 10)
	}
	dSS := mk(SS, 0.72, 125)
	dTT := mk(TT, 0.80, 85)
	dFF := mk(FF, 0.88, -30)
	if !(dSS > dTT && dTT > dFF) {
		t.Errorf("corner delay ordering broken: SS %v TT %v FF %v", dSS, dTT, dFF)
	}
}

func TestMISFactorsOnMultiInputGates(t *testing.T) {
	lib := testLib(t)
	nand := lib.Cell("NAND2_X1_SVT").Arc("A", "Z")
	if nand.MISFactorFast >= 1 || nand.MISFactorSlow <= 1 {
		t.Errorf("NAND2 MIS factors = (%v, %v), want (<1, >1)", nand.MISFactorFast, nand.MISFactorSlow)
	}
	inv := lib.Cell("INV_X1_SVT").Arc("A", "Z")
	if inv.MISFactorFast != 1 || inv.MISFactorSlow != 1 {
		t.Errorf("INV MIS factors = (%v, %v), want (1, 1)", inv.MISFactorFast, inv.MISFactorSlow)
	}
}

func TestLogicEval(t *testing.T) {
	cases := []struct {
		fn   string
		in   []bool
		want bool
	}{
		{"INV", []bool{true}, false},
		{"BUF", []bool{true}, true},
		{"NAND2", []bool{true, true}, false},
		{"NAND2", []bool{true, false}, true},
		{"NOR2", []bool{false, false}, true},
		{"NAND3", []bool{true, true, true}, false},
		{"NOR3", []bool{false, true, false}, false},
		{"AND2", []bool{true, true}, true},
		{"OR2", []bool{false, false}, false},
		{"XOR2", []bool{true, false}, true},
		{"XNOR2", []bool{true, false}, false},
		{"AOI21", []bool{true, true, false}, false},
		{"AOI21", []bool{true, false, false}, true},
		{"OAI21", []bool{false, false, true}, true},
		{"OAI21", []bool{true, false, true}, false},
		{"MUX2", []bool{true, false, false}, true},
		{"MUX2", []bool{true, false, true}, false},
	}
	for _, c := range cases {
		f := LogicEval(c.fn)
		if f == nil {
			t.Fatalf("no eval for %s", c.fn)
		}
		if got := f(c.in); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.fn, c.in, got, c.want)
		}
	}
	if LogicEval("DFF") != nil {
		t.Error("DFF should have no combinational eval")
	}
	if got := FunctionInputs("AOI21"); len(got) != 3 || got[0] != "A1" {
		t.Errorf("FunctionInputs(AOI21) = %v", got)
	}
	if FunctionInputs("NOPE") != nil {
		t.Error("unknown function should return nil inputs")
	}
}

func TestCellNameFractionalDrive(t *testing.T) {
	if got := CellName("INV", 0.5, SVT); got != "INV_X0.5_SVT" {
		t.Errorf("fractional drive name = %q", got)
	}
	if got := CellName("INV", 2, HVT); got != "INV_X2_HVT" {
		t.Errorf("integer drive name = %q", got)
	}
}

func TestCrossCornerRiseFallSkew(t *testing.T) {
	// FSG (slow PMOS) must stretch rises relative to falls versus the TT
	// balance; SFG the opposite — the clock-duty-cycle hazard that forces
	// cross-corner signoff of clock networks (paper footnote 2).
	mk := func(pc ProcessCorner) (riseD, fallD float64) {
		lib := Generate(Node16, PVT{Process: pc, Voltage: 0.8, Temp: 85}, GenOptions{})
		arc := lib.Cell("BUF_X4_SVT").Arc("A", "Z")
		return arc.Delay(true, 20, 10), arc.Delay(false, 20, 10)
	}
	rTT, fTT := mk(TT)
	rFSG, fFSG := mk(FSG)
	rSFG, fSFG := mk(SFG)
	balTT := rTT / fTT
	if balFSG := rFSG / fFSG; balFSG <= balTT {
		t.Errorf("FSG rise/fall balance (%v) should exceed TT (%v)", balFSG, balTT)
	}
	if balSFG := rSFG / fSFG; balSFG >= balTT {
		t.Errorf("SFG rise/fall balance (%v) should be below TT (%v)", balSFG, balTT)
	}
}

func TestICGGeneration(t *testing.T) {
	lib := testLib(t)
	icg := lib.Cell("ICG_X2_SVT")
	if icg == nil || icg.Gate == nil {
		t.Fatal("ICG missing or without gating spec")
	}
	if icg.FF != nil {
		t.Error("ICG should not be sequential")
	}
	if !icg.Pin("CK").IsClock {
		t.Error("ICG CK pin not clock-typed")
	}
	if icg.Arc("CK", "GCK") == nil {
		t.Fatal("gated-clock arc missing")
	}
	su := icg.Gate.SetupRise.Lookup(20, 20)
	if su <= 0 {
		t.Errorf("enable setup = %v, want positive", su)
	}
	// Enable setup grows with enable slew, like any constraint.
	if icg.Gate.SetupRise.Lookup(100, 20) <= su {
		t.Error("enable setup should grow with slew")
	}
}
