package conformance

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// checkMCMMMerge: merged MCMM reporting is pure aggregation, and fanning the
// scenarios out cannot change the answer (the corner super-explosion of paper
// §2.3 is only manageable if it cannot). Three scenario views over the
// design — the base period, a tight mode and a relaxed mode, enough spread
// that the merge has real structure to get wrong — go through the closure
// engine's survey, the fan-out and merge signoff serves.
func checkMCMMMerge(cx *Ctx) error {
	scenario := func(name string, scale float64) core.Scenario {
		return core.Scenario{
			Name: name, Lib: cx.Lib, PeriodScale: scale,
			SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), MIS: true,
			ForSetup: true, ForHold: true,
		}
	}
	rcp := core.Recipe{Name: "mcmm_lab", Scenarios: []core.Scenario{
		scenario("base", 1.0), scenario("tight", 0.82), scenario("relaxed", 1.3),
	}}
	return surveyAcrossWorkers(cx.Design, rcp, units.Ps(cx.Spec.Period), cx.Stack, cx.Spec.Seed)
}

// surveyAcrossWorkers surveys d under rcp at Workers 1 and at Workers 4. The
// two surveys must be identical and every scenario's analyzers bit-identical;
// each analyzer's summaries must be what its endpoint lists re-derive, with
// WNS the worst slack clamped at zero; and the merged WNS must be exactly the
// min over the scenarios.
func surveyAcrossWorkers(d *netlist.Design, rcp core.Recipe, period units.Ps, stack *parasitics.Stack, seed int64) error {
	var its []core.Iteration
	var runs [][]*sta.Analyzer
	for _, workers := range []int{1, 4} {
		e := &core.Engine{
			D: d, Recipe: rcp, BasePeriod: period, ClockPort: d.Port("clk"),
			Parasitics: sta.NewNetBinder(stack, seed), Workers: workers,
		}
		it, err := e.Survey()
		if err != nil {
			return fmt.Errorf("survey workers=%d: %v", workers, err)
		}
		its, runs = append(its, it), append(runs, e.Analyzers())
	}
	if !reflect.DeepEqual(its[0], its[1]) {
		return fmt.Errorf("survey differs between workers=1 and workers=4:\n  %+v\n  %+v", its[0], its[1])
	}
	it := its[0]
	setup, hold := units.Ps(math.Inf(1)), units.Ps(math.Inf(1))
	for i, a := range runs[0] {
		name := rcp.Scenarios[i].Name
		if err := sameState("scenario "+name+" at workers=4", runs[1][i], a); err != nil {
			return err
		}
		for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
			sum := a.Summary(kind)
			if re := summarize(a.EndpointSlacks(kind)); sum != re {
				return fmt.Errorf("scenario %s: %v summary %+v, recomputed from the list %+v", name, kind, sum, re)
			}
			if w := a.WNS(kind); w != min(0, sum.Worst) {
				return fmt.Errorf("scenario %s: %v WNS %v is not the clamped worst slack %v", name, kind, w, sum.Worst)
			}
		}
		setup, hold = min(setup, it.Scenarios[i].SetupWNS), min(hold, it.Scenarios[i].HoldWNS)
	}
	if it.MergedSetupWNS != setup || it.MergedHoldWNS != hold {
		return fmt.Errorf("merged WNS (%v, %v) is not the min over scenarios (%v, %v)",
			it.MergedSetupWNS, it.MergedHoldWNS, setup, hold)
	}
	return nil
}

// labRecipe is the two-corner old-goal-posts recipe the engine laws share,
// built once: characterizing its libraries is the expensive part.
var labRecipe = sync.OnceValue(func() core.Recipe {
	return core.OldGoalPosts(liberty.Node16, parasitics.Stack16())
})

// checkSurveyWorkers: the closure engine's survey on a fixed design merges
// identically at every worker count, since fix planning branches on it.
func checkSurveyWorkers(cx *Ctx) error {
	recipe := labRecipe()
	spec := SpecFor(mix(777, 0))
	return surveyAcrossWorkers(spec.Build(recipe.Scenarios[0].Lib), recipe, units.Ps(spec.Period), cx.Stack, spec.Seed)
}
