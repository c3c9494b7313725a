package mcmm

import (
	"strings"
	"testing"

	"newgame/internal/parasitics"
)

func space(nVolts, nTemps int, maskCombos int) Space {
	volts := make([]float64, nVolts)
	for i := range volts {
		volts[i] = 0.5 + 0.1*float64(i)
	}
	temps := make([]float64, nTemps)
	for i := range temps {
		temps[i] = -30 + 155*float64(i)/float64(max(1, nTemps-1))
	}
	return Space{
		Modes:           DefaultModes(),
		PVTs:            VoltageTempGrid(volts, temps),
		BEOLs:           append([]parasitics.CornerKind{parasitics.Typical}, parasitics.AllCorners...),
		MaskShiftCombos: maskCombos,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestEnumerateMatchesCount(t *testing.T) {
	sp := space(3, 2, 2)
	got := sp.Enumerate()
	if len(got) != sp.Count() {
		t.Fatalf("Enumerate len %d != Count %d", len(got), sp.Count())
	}
	// 6 modes × (3V × 2T × 2 proc) × 7 BEOL × 2 shifts = 1008.
	if want := 6 * 12 * 7 * 2; len(got) != want {
		t.Errorf("scenario count = %d, want %d", len(got), want)
	}
	// Names unique.
	seen := map[string]bool{}
	for _, s := range got {
		n := s.Name()
		if seen[n] {
			t.Fatalf("duplicate scenario name %q", n)
		}
		seen[n] = true
	}
}

func TestExplosionGrowsMultiplicatively(t *testing.T) {
	// The corner super-explosion: adding one double-patterned layer doubles
	// the count; adding a voltage adds a full slab.
	base := space(2, 2, 1).Count()
	moreMP := space(2, 2, 2).Count()
	moreV := space(3, 2, 1).Count()
	if moreMP != 2*base {
		t.Errorf("mask-shift doubling: %d -> %d", base, moreMP)
	}
	if moreV != base*3/2 {
		t.Errorf("voltage slab: %d -> %d", base, moreV)
	}
}

func TestVoltageTempGridSetupHoldSplit(t *testing.T) {
	grid := VoltageTempGrid([]float64{0.6}, []float64{-30, 125})
	if len(grid) != 4 {
		t.Fatalf("grid size = %d, want 4", len(grid))
	}
	for _, c := range grid {
		if strings.HasPrefix(c.Name, "SSG") && (!c.ForSetup || c.ForHold) {
			t.Errorf("SSG corner flags wrong: %+v", c)
		}
		if strings.HasPrefix(c.Name, "FFG") && (c.ForSetup || !c.ForHold) {
			t.Errorf("FFG corner flags wrong: %+v", c)
		}
	}
}

func TestPruneDominated(t *testing.T) {
	mkr := func(mode Mode, setup, hold float64) ScenarioResult {
		return ScenarioResult{
			Scenario: Scenario{Mode: mode, PVT: PVTCorner{Name: "p"}, BEOL: parasitics.CWorst},
			SetupWNS: setup, HoldWNS: hold,
		}
	}
	fn := Mode{Name: "f", Kind: Functional}
	scan := Mode{Name: "s", Kind: ScanShift}
	rs := []ScenarioResult{
		mkr(fn, -100, -10), // dominator
		mkr(fn, -40, -1),   // dominated in both checks by > margin
		mkr(fn, -99, -9),   // within margin of dominator: kept
		mkr(scan, -10, 0),  // different mode kind: kept
	}
	keep, pruned := PruneDominated(rs, 5)
	if len(keep) != 3 || len(pruned) != 1 {
		t.Fatalf("keep %d pruned %d, want 3/1", len(keep), len(pruned))
	}
	if pruned[0].SetupWNS != -40 {
		t.Errorf("wrong scenario pruned: %+v", pruned[0].Scenario)
	}
	// The kept set must still realize the merged WNS.
	merged := func(rs []ScenarioResult) (setup, hold float64) {
		for _, r := range rs {
			setup, hold = min(setup, r.SetupWNS), min(hold, r.HoldWNS)
		}
		return setup, hold
	}
	s0, h0 := merged(rs)
	s1, h1 := merged(keep)
	if s0 != s1 || h0 != h1 {
		t.Errorf("pruning changed merged WNS: (%v,%v) vs (%v,%v)", s0, h0, s1, h1)
	}
}

func TestModeKindStrings(t *testing.T) {
	for _, m := range DefaultModes() {
		if m.Kind.String() == "" || m.PeriodScale <= 0 {
			t.Errorf("bad mode %+v", m)
		}
	}
}
