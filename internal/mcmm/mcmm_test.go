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

func TestPruneKeepsOnePerClassAndKind(t *testing.T) {
	// Modes change only the period, so each (PVT, BEOL, mask shift) class
	// keeps exactly one scenario per check kind: for setup the
	// fastest-clocked mode, for hold the first.
	sp := space(3, 2, 2)
	p := sp.Prune()
	type class struct {
		pvt       string
		beol      parasitics.CornerKind
		maskShift int
	}
	kept := map[class][]Scenario{}
	for i, sc := range p.Scenarios {
		if p.Kept(i) {
			k := class{sc.PVT.Name, sc.BEOL, sc.MaskShift}
			kept[k] = append(kept[k], sc)
		}
	}
	// (3V × 2T × 2 proc) × 7 BEOL × 2 shifts.
	if want := 12 * 7 * 2; len(kept) != want {
		t.Fatalf("classes with a kept scenario = %d, want %d", len(kept), want)
	}
	for k, scs := range kept {
		if len(scs) != 1 {
			t.Fatalf("class %+v keeps %d scenarios, want 1", k, len(scs))
		}
		want := "func_nominal"
		if scs[0].PVT.ForSetup {
			want = "func_overdrive"
		}
		if scs[0].Mode.Name != want {
			t.Errorf("class %+v keeps %s, want %s", k, scs[0].Mode.Name, want)
		}
	}
}

func TestDefaultModesHavePeriods(t *testing.T) {
	for _, m := range DefaultModes() {
		if m.Name == "" || m.PeriodScale <= 0 {
			t.Errorf("bad mode %+v", m)
		}
	}
}
