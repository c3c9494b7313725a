package core

import (
	"math"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/parasitics"
	"newgame/internal/place"
	"newgame/internal/sta"
	"newgame/internal/variation"
)

// engine builds a closure engine on a mid-size block with a period chosen
// to produce (fixable) violations.
func engine(t *testing.T, recipe Recipe, period float64, seed int64) *Engine {
	t.Helper()
	lib := recipe.Scenarios[0].Lib
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "close", Inputs: 16, Outputs: 16, FFs: 64, Gates: 900,
		MaxDepth: 12, Seed: seed, ClockBufferLevels: 2,
		VtMix: [3]float64{0, 0.4, 0.6},
	})
	return &Engine{
		D: d, Recipe: recipe, BasePeriod: period, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(parasitics.Stack16(), seed),
	}
}

// wantCostsBooked asserts a closure result's cost totals are exactly what its
// iterations' fix reports add up to, pass by pass in the order they ran.
func wantCostsBooked(t *testing.T, res *Result) {
	t.Helper()
	var area, leak float64
	for _, it := range res.Iterations {
		for _, f := range it.Fixes {
			area += f.AreaDelta
			leak += f.LeakageDelta
		}
	}
	if math.Abs(res.AreaDelta-area) > 1e-9 || math.Abs(res.LeakageDelta-leak) > 1e-9 {
		t.Errorf("result books area %v leakage %v, its fix reports sum to area %v leakage %v",
			res.AreaDelta, res.LeakageDelta, area, leak)
	}
}

func TestRecipeValidation(t *testing.T) {
	if err := (Recipe{Name: "empty"}).Validate(); err == nil {
		t.Error("empty recipe accepted")
	}
	old := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	if err := old.Validate(); err != nil {
		t.Errorf("old recipe invalid: %v", err)
	}
	libs := GenerateNewLibs(liberty.Node16)
	nw := NewGoalPosts(libs, parasitics.Stack16())
	if err := nw.Validate(); err != nil {
		t.Errorf("new recipe invalid: %v", err)
	}
	// Setup-only recipe must be rejected.
	bad := Recipe{Name: "so", Scenarios: []Scenario{{Name: "x", Lib: libs.SlowHot, PeriodScale: 1, ForSetup: true}}}
	if err := bad.Validate(); err == nil {
		t.Error("setup-only recipe accepted")
	}
}

func TestClosureConvergesOldRecipe(t *testing.T) {
	recipe := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	e := engine(t, recipe, 560, 42)
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	first := res.Iterations[0]
	if first.MergedSetupWNS >= 0 {
		t.Fatalf("test period too loose: initial WNS %v", first.MergedSetupWNS)
	}
	// WNS must improve monotonically-ish across iterations (allow final
	// signoff wobble of a few ps).
	last := res.Iterations[len(res.Iterations)-1]
	if last.MergedSetupWNS <= first.MergedSetupWNS {
		t.Errorf("closure made no progress: %v -> %v", first.MergedSetupWNS, last.MergedSetupWNS)
	}
	if !res.Closed {
		t.Errorf("closure did not converge: final WNS %v / %v, viol %d",
			last.MergedSetupWNS, last.MergedHoldWNS, last.Breakdown.Total())
	}
	// Fixes were applied in the Figure 1 order: vt_swap first.
	var firstFix string
	for _, it := range res.Iterations {
		if len(it.Fixes) > 0 {
			firstFix = it.Fixes[0].Pass
			break
		}
	}
	if firstFix != "vt_swap" {
		t.Errorf("first fix = %q, want vt_swap (Figure 1 ordering)", firstFix)
	}
	// Speed costs leakage.
	if res.LeakageDelta <= 0 {
		t.Errorf("closure claimed zero/negative leakage cost: %v", res.LeakageDelta)
	}
	wantCostsBooked(t, res)
}

func TestClosureNewRecipe(t *testing.T) {
	if testing.Short() {
		t.Skip("MCMM closure in -short")
	}
	libs := GenerateNewLibs(liberty.Node16)
	for _, l := range []*liberty.Library{libs.SlowHot, libs.SlowCold, libs.FastCold} {
		variation.CharacterizeLVF(l, 0.02, 2000, 5)
	}
	recipe := NewGoalPosts(libs, parasitics.Stack16())
	e := engine(t, recipe, 640, 43)
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	last := res.Iterations[len(res.Iterations)-1]
	first := res.Iterations[0]
	if first.MergedSetupWNS < 0 && last.MergedSetupWNS <= first.MergedSetupWNS {
		t.Errorf("new-recipe closure made no progress: %v -> %v",
			first.MergedSetupWNS, last.MergedSetupWNS)
	}
	// The new recipe analyzes 4 scenarios per iteration.
	if got := len(first.Scenarios); got != 4 {
		t.Errorf("scenario count = %d, want 4", got)
	}
	wantCostsBooked(t, res)
}

func TestPBAReclassification(t *testing.T) {
	// With AOCV-style pessimism and reconvergent slews, some GBA violations
	// evaporate under PBA; the breakdown must report them.
	libs := GenerateNewLibs(liberty.Node16)
	variation.CharacterizeLVF(libs.SlowHot, 0.02, 2000, 5)
	recipe := Recipe{
		Name: "pba_test",
		Scenarios: []Scenario{
			{
				Name: "s", Lib: libs.SlowHot,
				Scaling:     parasitics.Stack16().Corner(parasitics.RCWorst, 3),
				PeriodScale: 1, Derate: sta.DefaultAOCV(),
				ForSetup: true, ForHold: true,
			},
		},
		MaxIterations: 1, UsePBA: true, PBAEndpoints: 80,
	}
	e := engine(t, recipe, 480, 44)
	it, err := e.Survey()
	if err != nil {
		t.Fatal(err)
	}
	if it.Breakdown.SetupEndpoints == 0 {
		t.Skip("no violations at this period")
	}
	if it.Breakdown.PBAReclassified < 0 {
		t.Error("negative reclassification count")
	}
	t.Logf("GBA violations %d, PBA-reclassified %d",
		it.Breakdown.SetupEndpoints, it.Breakdown.PBAReclassified)
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{SetupEndpoints: 2, HoldEndpoints: 1, MaxTran: 3, MaxCap: 4, Noise: 5}
	if b.Total() != 15 {
		t.Errorf("Total = %d", b.Total())
	}
}

func TestResultString(t *testing.T) {
	r := Result{Recipe: "x", Iterations: []Iteration{{Index: 1, MergedSetupWNS: -5, MergedHoldWNS: 1}}}
	if s := r.String(); len(s) == 0 || math.IsNaN(float64(len(s))) {
		t.Error("empty report")
	}
}

func TestDynamicIRScenarioAddsPessimism(t *testing.T) {
	libs := GenerateNewLibs(liberty.Node16)
	mk := func(dynIR bool) float64 {
		recipe := Recipe{
			Name: "ir",
			Scenarios: []Scenario{{
				Name: "s", Lib: libs.SlowHot, PeriodScale: 1,
				ForSetup: true, ForHold: true, DynamicIR: dynIR,
			}},
			MaxIterations: 1,
		}
		e := engine(t, recipe, 700, 51)
		p, err := place.New(e.D, libs.SlowHot, 400, 51)
		if err != nil {
			t.Fatal(err)
		}
		e.Place = p
		it, err := e.Survey()
		if err != nil {
			t.Fatal(err)
		}
		return it.MergedSetupWNS
	}
	off := mk(false)
	on := mk(true)
	if on >= off {
		t.Errorf("dynamic IR scenario should reduce setup WNS: %v -> %v", off, on)
	}
}

func TestClosureAlreadyClean(t *testing.T) {
	// A generously-clocked deep chain (no DRC debt, no short paths) must
	// close in one iteration with no fixes at all — the early-exit path.
	recipe := OldGoalPosts(liberty.Node16, parasitics.Stack16())
	d := circuits.Chain(recipe.Scenarios[0].Lib, circuits.ChainSpec{Stages: 20, Vt: liberty.SVT})
	e := &Engine{
		D: d, Recipe: recipe, BasePeriod: 2000, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(parasitics.Stack16(), 45),
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed {
		t.Fatalf("clean design did not close: %+v", res.Final.Breakdown)
	}
	// Iteration 1 finds the design clean (no fixes); iteration 2 is the
	// post-close margin recovery survey.
	if len(res.Iterations) != 2 {
		t.Errorf("clean design took %d iterations, want 2 (clean + recovery)", len(res.Iterations))
	}
	if len(res.Iterations[0].Fixes) != 0 {
		t.Error("fixes applied to a clean design")
	}
	// Recovery must not *cost* anything on a clean design — it can only
	// give leakage/area back (HVT downswaps, downsizing).
	if res.LeakageDelta > 0 || res.AreaDelta > 0 {
		t.Errorf("recovery increased cost: leak %v area %v", res.LeakageDelta, res.AreaDelta)
	}
	if res.LeakageDelta == 0 {
		t.Error("slack-rich chain recovered no leakage; recovery inert")
	}
	if res.Final.MergedSetupWNS < 0 || res.Final.MergedHoldWNS < 0 {
		t.Error("recovery broke timing")
	}
	wantCostsBooked(t, res)
}

func TestSkewScaleDefinition(t *testing.T) {
	libs := GenerateNewLibs(liberty.Node16)
	recipe := NewGoalPosts(libs, parasitics.Stack16())
	e := engine(t, recipe, 700, 46)
	// Reference scenario scales to exactly 1.
	if got := e.skewScale(recipe.Scenarios[0].Lib); math.Abs(got-1) > 1e-12 {
		t.Errorf("reference skew scale = %v, want 1", got)
	}
	// The fast library is faster: scale < 1.
	if got := e.skewScale(libs.FastCold); got >= 1 {
		t.Errorf("fast-corner skew scale = %v, want < 1", got)
	}
}
