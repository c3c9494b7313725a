package mcmm

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"newgame/internal/obs"
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

func TestMergedWNS(t *testing.T) {
	rs := []ScenarioResult{
		{SetupWNS: -50, HoldWNS: 0},
		{SetupWNS: -10, HoldWNS: -20},
		{SetupWNS: 0, HoldWNS: 0},
	}
	s, h := MergedWNS(rs)
	if s != -50 || h != -20 {
		t.Errorf("merged = (%v, %v), want (-50, -20)", s, h)
	}
	s, h = MergedWNS(nil)
	if s != 0 || h != 0 {
		t.Errorf("empty merge = (%v, %v)", s, h)
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
	s0, h0 := MergedWNS(rs)
	s1, h1 := MergedWNS(keep)
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

// Sweep must return results in input order at any worker count, and the
// concurrent evaluation must agree with serial exactly.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	sp := space(4, 3, 2)
	sp.Modes = DefaultModes()
	scenarios := sp.Enumerate()
	eval := func(idx int, s Scenario) ScenarioResult {
		// Depend on both index and scenario so misordered results or a
		// scenario/slot mismatch is caught.
		return ScenarioResult{
			Scenario: s,
			SetupWNS: -float64(idx) - (1.0-s.PVT.Voltage)*100,
			HoldWNS:  -s.PVT.Temp / 8,
		}
	}
	serial := Sweep(scenarios, 1, eval)
	if len(serial) != len(scenarios) {
		t.Fatalf("got %d results, want %d", len(serial), len(scenarios))
	}
	for i, r := range serial {
		if r.Scenario != scenarios[i] {
			t.Fatalf("result %d holds scenario %v, want input order", i, r.Scenario)
		}
	}
	for _, workers := range []int{0, 2, 8} {
		par := Sweep(scenarios, workers, eval)
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers=%d: results differ from serial", workers)
		}
	}
}

// SweepObs records one span and one worker-counter bump per scenario
// evaluation without changing the results, and stays nil-safe when the
// recorder is absent.
func TestSweepObsRecordsWithoutPerturbing(t *testing.T) {
	sp := space(3, 2, 1)
	sp.Modes = DefaultModes()[:2]
	scenarios := sp.Enumerate()
	eval := func(idx int, s Scenario) ScenarioResult {
		return ScenarioResult{Scenario: s, SetupWNS: -float64(idx), HoldWNS: -1}
	}
	bare := Sweep(scenarios, 1, eval)
	rec := obs.NewRecorder()
	parent := rec.Start("sweep", nil)
	got := SweepObs(rec, parent, scenarios, 3, eval)
	parent.End()
	if !reflect.DeepEqual(got, bare) {
		t.Fatal("recorded sweep differs from bare sweep")
	}
	var b bytes.Buffer
	if err := rec.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Counters map[string]int64 `json:"counters"`
		Spans    map[string]struct {
			Count int `json:"count"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	spans, counted := 0, int64(0)
	for name, st := range d.Spans {
		if strings.HasPrefix(name, "scenario:") {
			spans += st.Count
		}
	}
	for name, v := range d.Counters {
		if strings.HasPrefix(name, "mcmm.worker_") {
			counted += v
		}
	}
	if spans != len(scenarios) || counted != int64(len(scenarios)) {
		t.Fatalf("recorded %d spans / %d counter bumps, want %d scenarios",
			spans, counted, len(scenarios))
	}
}
