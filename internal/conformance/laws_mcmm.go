package conformance

import (
	"fmt"
	"reflect"
	"sync"

	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/mcmm"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// checkMCMMMerge: merged MCMM reporting is pure aggregation — the merged
// WNS is exactly the min over scenario WNS (clamped at zero: a design
// with no violations reports zero, not its positive margin), the merged
// TNS is exactly the sum, and the sweep's results are identical at every
// worker count (the corner super-explosion of paper §2.3 is only
// manageable if fanning scenarios out cannot change the answer).
func checkMCMMMerge(cx *Ctx) error {
	// Three scenario views over the same design: the base period, a tight
	// mode and a relaxed mode — enough spread that min/sum aggregation
	// has real structure to get wrong.
	scales := []float64{1.0, 0.82, 1.3}
	space := mcmm.Space{
		Modes: mcmm.DefaultModes()[:1],
		PVTs:  []mcmm.PVTCorner{{Voltage: 0.8, Temp: 85}},
		BEOLs: []parasitics.CornerKind{parasitics.Typical, parasitics.CWorst, parasitics.CBest},
	}
	scenarios := space.Enumerate()
	if len(scenarios) != len(scales) {
		return fmt.Errorf("scenario space enumerated %d views, want %d", len(scenarios), len(scales))
	}
	var mu sync.Mutex
	wnsErrs := make([]error, len(scenarios))
	eval := func(idx int, s mcmm.Scenario) mcmm.ScenarioResult {
		cons := cx.constraintsFor(cx.Design, units.Ps(cx.Spec.Period*scales[idx]))
		a, err := sta.New(cx.Design, cons, cx.fullCfg(1))
		if err == nil {
			err = a.Run()
		}
		if err != nil {
			mu.Lock()
			wnsErrs[idx] = err
			mu.Unlock()
			return mcmm.ScenarioResult{Scenario: s}
		}
		// Per-scenario aggregate consistency: the WNS/TNS the scenario
		// reports must be exactly re-derivable from its endpoint list
		// (min clamped at 0; sum of each endpoint's worst violation, in
		// the same worst-first order, so equality is byte-exact).
		mu.Lock()
		wnsErrs[idx] = checkAggregates(a)
		mu.Unlock()
		return mcmm.ScenarioResult{Scenario: s, SetupWNS: a.WNS(sta.Setup), HoldWNS: a.WNS(sta.Hold)}
	}
	serial := mcmm.Sweep(scenarios, 1, eval)
	for i, err := range wnsErrs {
		if err != nil {
			return fmt.Errorf("scenario %d (%s): %v", i, scenarios[i].Name(), err)
		}
	}
	par := mcmm.Sweep(scenarios, 4, eval)
	if !reflect.DeepEqual(serial, par) {
		return fmt.Errorf("mcmm.Sweep results differ between workers=1 and workers=4")
	}

	wantSetup, wantHold := units.Ps(0), units.Ps(0)
	for _, r := range serial {
		if r.SetupWNS < wantSetup {
			wantSetup = r.SetupWNS
		}
		if r.HoldWNS < wantHold {
			wantHold = r.HoldWNS
		}
	}
	gotSetup, gotHold := mcmm.MergedWNS(serial)
	if gotSetup != wantSetup || gotHold != wantHold {
		return fmt.Errorf("MergedWNS = (%v, %v), want min-over-scenarios (%v, %v)",
			gotSetup, gotHold, wantSetup, wantHold)
	}
	return nil
}

// checkAggregates re-derives WNS (min over endpoints, clamped at 0) and
// TNS (sum of each endpoint's worst violation) from the endpoint list
// and demands byte-exact agreement with the analyzer's own aggregates.
func checkAggregates(a *sta.Analyzer) error {
	for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
		eps := a.EndpointSlacks(kind)
		wantWNS := units.Ps(0)
		var wantTNS units.Ps
		seen := map[string]bool{}
		for _, e := range eps {
			if e.Slack < wantWNS {
				wantWNS = e.Slack
			}
			if !seen[e.Name()] {
				seen[e.Name()] = true
				if e.Slack < 0 {
					wantTNS += e.Slack
				}
			}
		}
		if len(eps) == 0 {
			continue
		}
		if got := a.WNS(kind); got != wantWNS {
			return fmt.Errorf("%v WNS %v is not the clamped endpoint min %v", kind, got, wantWNS)
		}
		if got := a.TNS(kind); got != wantTNS {
			return fmt.Errorf("%v TNS %v is not the per-endpoint violation sum %v", kind, got, wantTNS)
		}
	}
	return nil
}

// surveyRecipe memoizes the (expensive) two-corner recipe the engine- and
// scenario-set laws share; laws reach it through labRecipe.
var surveyRecipe *core.Recipe

func labRecipe(cx *Ctx) *core.Recipe {
	if surveyRecipe == nil {
		r := core.OldGoalPosts(liberty.Node16, cx.Stack)
		surveyRecipe = &r
	}
	return surveyRecipe
}

// checkSurveyWorkers: the closure engine's survey is the consumer of
// mcmm.Sweep — its merged WNS and per-scenario breakdown must be
// identical at every worker count, since fix planning branches on them.
func checkSurveyWorkers(cx *Ctx) error {
	recipe := labRecipe(cx)
	spec := SpecFor(mix(777, 0))
	var its []core.Iteration
	for _, workers := range []int{1, 4} {
		d := spec.Build(recipe.Scenarios[0].Lib)
		e := &core.Engine{
			D: d, Recipe: *recipe, BasePeriod: units.Ps(spec.Period),
			ClockPort:  d.Port("clk"),
			Parasitics: sta.NewNetBinder(cx.Stack, spec.Seed),
			Workers:    workers,
		}
		it, err := e.Survey()
		if err != nil {
			return fmt.Errorf("survey workers=%d: %v", workers, err)
		}
		its = append(its, it)
	}
	if !reflect.DeepEqual(its[0], its[1]) {
		return fmt.Errorf("survey differs between workers=1 and workers=4:\n  %+v\n  %+v", its[0], its[1])
	}
	return nil
}
