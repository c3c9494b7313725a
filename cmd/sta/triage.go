package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/report"
	"newgame/internal/sta"
	"newgame/internal/triage"
)

type triageConfig struct {
	period  float64
	derate  sta.Derater
	beol    parasitics.CornerKind
	si      sta.SIConfig
	mis     bool
	workers int
	json    bool
}

// triageScenarios is the CLI's MCMM debug recipe: tight and loose setup
// views plus tight and loose hold views, all delay-identical so the
// dominance planner prunes the loose siblings — the report demonstrates
// both cross-scenario clustering and the prune audit on any circuit.
func triageScenarios(lib *liberty.Library, scaling *parasitics.Scaling, tc triageConfig) []core.Scenario {
	sc := func(name string) core.Scenario {
		return core.Scenario{
			Name: name, Lib: lib, Scaling: scaling, PeriodScale: 1,
			Derate: tc.derate, SI: tc.si, MIS: tc.mis,
		}
	}
	tightSetup := sc("func_tight")
	tightSetup.ForSetup, tightSetup.SetupUncertainty = true, 25
	looseSetup := sc("func_loose")
	looseSetup.ForSetup, looseSetup.SetupUncertainty = true, 10
	tightHold := sc("hold_tight")
	tightHold.ForHold, tightHold.HoldUncertainty = true, 15
	looseHold := sc("hold_loose")
	looseHold.ForHold, looseHold.HoldUncertainty = true, 5
	return []core.Scenario{tightSetup, looseSetup, tightHold, looseHold}
}

// runTriage analyzes the circuit under the debug recipe and prints the
// clustered root-cause report.
func runTriage(out io.Writer, d *netlist.Design, lib *liberty.Library, stack *parasitics.Stack, tc triageConfig) error {
	scens := triageScenarios(lib, stack.Corner(tc.beol, 3), tc)
	plan := triage.PlanFor(scens, tc.period)

	views := &core.Views{
		D: d, ClockPort: d.Port("clk"), BasePeriod: tc.period, Scenarios: scens,
		Parasitics: sta.NewNetBinder(stack, 1),
		Workers:    tc.workers,
	}
	if err := views.Build(context.Background()); err != nil {
		return err
	}
	extracts := make([]triage.ScenarioExtract, len(scens))
	for i, a := range views.Analyzers() {
		extracts[i] = triage.ExtractScenario(a, plan, i, triage.Options{})
	}
	rep := triage.BuildReport(extracts)

	if tc.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	st := d.Stats()
	fmt.Fprintf(out, "triage %s: %d cells | %d scenarios, period %.0f ps | %d violations in %d clusters | %d path walks analyzed, %d pruned by dominance\n\n",
		d.Name, st.Cells, rep.Stats.Scenarios, tc.period,
		rep.Stats.Violations, len(rep.Clusters), rep.Stats.AnalyzedPairs, rep.Stats.PrunedPairs)

	tb := report.NewTable("root-cause clusters", "id", "TNS (ps)", "worst (ps)", "violations", "dominant scenario", "dominant segment")
	for _, c := range rep.Clusters {
		tb.Row(c.ID, c.TNS, c.WorstSlack, len(c.Violations), c.DominantScenario, c.DominantSegment)
	}
	tb.Render(out)

	if len(rep.Clusters) > 0 {
		fmt.Fprintf(out, "\ncluster 1 detail (worst by TNS):\n")
		for _, v := range rep.Clusters[0].Violations {
			tag := ""
			if v.PrunedBy != "" {
				tag = "  [paths inherited from " + v.PrunedBy + "]"
			}
			fmt.Fprintf(out, "  %-10s %-5s %-32s slack %8.1f  depth %2d  pba-recoverable %6.1f  %s%s\n",
				v.Scenario, v.Kind, v.Endpoint, v.Slack, v.Depth, v.Pessimism, v.ClockPair, tag)
		}
	}

	if len(rep.Prunes) > 0 {
		fmt.Fprintf(out, "\ndominance prune audit:\n")
		for _, p := range rep.Prunes {
			fmt.Fprintf(out, "  %s/%s pruned under %s: %s\n", p.Scenario, p.Kind, p.DominatedBy, p.Reason)
		}
	}
	return nil
}
