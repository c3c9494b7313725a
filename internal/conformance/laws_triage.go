package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/timingd"
	"newgame/internal/triage"
	"newgame/internal/units"
)

// triageRecipe is the four-scenario lab recipe the triage laws quantify
// over: two setup views and two hold views, all delay-identical (same
// library, BEOL corner and flat OCV), distinguished only by uncertainty
// margins. The loose sibling of each pair is provably dominated by the
// tight one, so the dominance planner must prune exactly two
// (scenario, kind) extractions — and the four scenarios give every shard
// count in {1, 2, 4} at least one scenario per worker.
func triageRecipe(lib *liberty.Library, stack *parasitics.Stack) core.Recipe {
	scaling := stack.Corner(parasitics.CWorst, 3)
	flat := sta.DefaultFlatOCV()
	sc := func(name string) core.Scenario {
		return core.Scenario{Name: name, Lib: lib, Scaling: scaling, PeriodScale: 1, Derate: flat}
	}
	tightSetup := sc("func_tight")
	tightSetup.ForSetup, tightSetup.SetupUncertainty = true, 25
	looseSetup := sc("func_loose")
	looseSetup.ForSetup, looseSetup.SetupUncertainty = true, 10
	tightHold := sc("hold_tight")
	tightHold.ForHold, tightHold.HoldUncertainty = true, 15
	looseHold := sc("hold_loose")
	looseHold.ForHold, looseHold.HoldUncertainty = true, 5
	return core.Recipe{
		Name:      "triage_lab",
		Scenarios: []core.Scenario{tightSetup, looseSetup, tightHold, looseHold},
	}
}

// triagePeriod picks (and memoizes per design) a clock period that leaves
// the tightest setup scenario with a worst slack near -60 ps, so every
// design in the sweep actually has violations to cluster and the dominated
// setup sibling (15 ps looser) still violates. Single-cycle setup slack is
// linear in period (its own law), so one probe run suffices.
func (cx *Ctx) triagePeriod() (units.Ps, error) {
	if cx.triagePd != 0 {
		return cx.triagePd, nil
	}
	probe := units.Ps(cx.Spec.Period)
	tight, err := buildViews(cx.Design, triageRecipe(cx.Lib, cx.Stack).Scenarios[:1], probe, sta.NewNetBinder(cx.Stack, cx.Spec.Seed))
	if err != nil {
		return 0, fmt.Errorf("triage period probe: %v", err)
	}
	es := tight.Analyzers()[0].EndpointSlacks(sta.Setup)
	if len(es) == 0 {
		return 0, fmt.Errorf("design has no setup endpoints")
	}
	pd := probe - es[0].Slack - 60
	if pd < 60 {
		pd = 60
	}
	cx.triagePd = pd
	return pd, nil
}

// checkDominancePruneSound: scenario-dominance pruning is an optimization,
// never an approximation. For every pruned (endpoint, scenario) pair,
// re-analysis without pruning reports a slack no better than the
// dominating sibling reported for that endpoint — the dominator really is
// a worse bound — and the pruned extraction is feature-identical to the
// direct one: same violations, same slacks bit for bit, same clustered
// report, with the skipped path walks exactly accounted for.
func checkDominancePruneSound(cx *Ctx) error {
	rcp := triageRecipe(cx.Lib, cx.Stack)
	pd, err := cx.triagePeriod()
	if err != nil {
		return err
	}
	scens := rcp.Scenarios
	plan := triage.PlanFor(scens, pd)
	idx := make(map[string]int, len(scens))
	for i, sc := range scens {
		idx[sc.Name] = i
	}
	if plan.SetupDominator[idx["func_loose"]] != idx["func_tight"] ||
		plan.SetupDominator[idx["func_tight"]] != -1 ||
		plan.HoldDominator[idx["hold_loose"]] != idx["hold_tight"] ||
		plan.HoldDominator[idx["hold_tight"]] != -1 {
		return fmt.Errorf("plan dominators setup=%v hold=%v do not match the recipe's dominance structure",
			plan.SetupDominator, plan.HoldDominator)
	}
	if len(plan.Prunes) != 2 {
		return fmt.Errorf("want 2 prune records, got %+v", plan.Prunes)
	}

	views, err := buildViews(cx.Design, scens, pd, sta.NewNetBinder(cx.Stack, cx.Spec.Seed))
	if err != nil {
		return err
	}
	analyzers := views.Analyzers()

	var opts triage.Options
	noPrune := triage.NoPrune(plan)
	pruned := make([]triage.ScenarioExtract, len(scens))
	direct := make([]triage.ScenarioExtract, len(scens))
	for i := range scens {
		pruned[i] = triage.ExtractScenario(analyzers[i], plan, i, opts)
		direct[i] = triage.ExtractScenario(analyzers[i], noPrune, i, opts)
	}

	totalPruned := 0
	for i := range scens {
		p, f := pruned[i], direct[i]
		if f.PrunedPairs != 0 {
			return fmt.Errorf("%s: unpruned extraction claims %d pruned pairs", f.Scenario, f.PrunedPairs)
		}
		if p.AnalyzedPairs+p.PrunedPairs != f.AnalyzedPairs {
			return fmt.Errorf("%s: pair accounting %d analyzed + %d pruned != %d analyzed unpruned",
				p.Scenario, p.AnalyzedPairs, p.PrunedPairs, f.AnalyzedPairs)
		}
		if len(p.Violations) != len(f.Violations) {
			return fmt.Errorf("%s: pruning changed the violation count %d -> %d",
				p.Scenario, len(f.Violations), len(p.Violations))
		}
		totalPruned += p.PrunedPairs
		for k := range p.Violations {
			pv, fv := p.Violations[k], f.Violations[k]
			if pv.Endpoint != fv.Endpoint || pv.Kind != fv.Kind || pv.RF != fv.RF || pv.Slack != fv.Slack {
				return fmt.Errorf("%s: pruning changed a reported check:\n  pruned: %+v\n  direct: %+v",
					p.Scenario, pv, fv)
			}
			if pv.PrunedBy == "" {
				continue
			}
			// The soundness obligation itself: the dominator reported this
			// endpoint, and at least as badly as direct re-analysis does.
			dom := direct[idx[pv.PrunedBy]]
			var dv *triage.Violation
			for m := range dom.Violations {
				if dom.Violations[m].Kind == pv.Kind && dom.Violations[m].Endpoint == pv.Endpoint {
					dv = &dom.Violations[m]
					break
				}
			}
			if dv == nil {
				return fmt.Errorf("%s/%s %s: pruned under %s, which does not report the endpoint",
					p.Scenario, pv.Kind, pv.Endpoint, pv.PrunedBy)
			}
			if dv.Slack > fv.Slack {
				return fmt.Errorf("%s/%s %s: dominator %s slack %v is better than re-analyzed %v — prune unsound",
					p.Scenario, pv.Kind, pv.Endpoint, pv.PrunedBy, dv.Slack, fv.Slack)
			}
		}
	}
	if totalPruned == 0 {
		return fmt.Errorf("dominated scenarios violate but nothing was pruned")
	}

	// The clustered report is invariant under pruning up to the audit tags:
	// inherited features resolve to the very bytes direct analysis produces.
	pc, _ := json.Marshal(stripPrunedBy(triage.BuildReport(pruned).Clusters))
	fc, _ := json.Marshal(stripPrunedBy(triage.BuildReport(direct).Clusters))
	if !bytes.Equal(pc, fc) {
		return fmt.Errorf("pruning changed the clustered report:\n  pruned: %s\n  direct: %s", pc, fc)
	}
	return nil
}

// stripPrunedBy clears the audit tag, the one field pruning is allowed to
// change, so the rest of the report can be compared byte for byte.
func stripPrunedBy(cs []triage.Cluster) []triage.Cluster {
	out := make([]triage.Cluster, len(cs))
	for i, c := range cs {
		c.Violations = append([]triage.Violation(nil), c.Violations...)
		for j := range c.Violations {
			c.Violations[j].PrunedBy = ""
		}
		out[i] = c
	}
	return out
}

// checkTriageResident: a server keeps its triage workspace between renders —
// the segment-key table, the merge's scratch, each scenario's path walker —
// and none of it may show in an answer. Along resizes, a buffer ECO (a new
// topology, so the key table starts over) and a buffer what-if (inserted and
// taken out again: two more topologies), the kept server's /triage and every
// /triage/extract equal, byte for byte, those of a server booted fresh and
// taken to the same netlist by the same commits.
func checkTriageResident(cx *Ctx) error {
	rcp := triageRecipe(cx.Lib, cx.Stack)
	pd, err := cx.triagePeriod()
	if err != nil {
		return err
	}
	cfg := timingd.Config{
		Design: cx.Design, Recipe: rcp, Stack: cx.Stack,
		BasePeriod: pd, Seed: cx.Spec.Seed, QueryWorkers: 2,
	}
	d := cx.Design
	var resizes, buffers []timingd.Op
	for _, c := range d.Cells {
		if m := cx.Lib.Cell(c.TypeName); m != nil && !m.IsSequential() && len(resizes) < 2 {
			for _, v := range variantsOf(cx.Lib, m) {
				if v != c.TypeName {
					resizes = append(resizes, timingd.Op{Kind: "resize", Cell: c.Name, To: v})
					break
				}
			}
		}
	}
	for _, n := range d.Nets {
		if n.Driver != nil && len(n.Loads) >= 2 && len(buffers) < 2 {
			buffers = append(buffers, timingd.Op{Kind: "buffer", Net: n.Name, Loads: []string{n.Loads[0].FullName()}, To: "BUF_X1_SVT"})
		}
	}
	if len(resizes) < 2 || len(buffers) < 2 {
		return fmt.Errorf("design offers %d resizes and %d buffer sites, want 2 of each", len(resizes), len(buffers))
	}
	undo := resizes[0]
	undo.To = d.Cell(undo.Cell).TypeName

	ctx := context.Background()
	kept, err := bootCluster(0, cfg)
	if err != nil {
		return err
	}
	defer kept.close()
	var committed [][]timingd.Op
	for _, step := range []struct {
		name        string
		whatIf, eco []timingd.Op
	}{
		{name: "boot"},
		{name: "resize", eco: resizes[:1]},
		{name: "buffer eco", eco: buffers[:1]},
		{name: "buffer what-if, then a resize", whatIf: buffers[1:], eco: resizes[1:]},
		{name: "resize undone", eco: []timingd.Op{undo}},
	} {
		if step.whatIf != nil {
			if err := kept.c.Do(ctx, "POST", "/whatif", timingd.OpsBody{Ops: step.whatIf}, nil); err != nil {
				return fmt.Errorf("%s: what-if: %v", step.name, err)
			}
		}
		if step.eco != nil {
			if err := kept.c.Do(ctx, "POST", "/eco", timingd.OpsBody{Ops: step.eco}, nil); err != nil {
				return fmt.Errorf("%s: eco: %v", step.name, err)
			}
			committed = append(committed, step.eco)
		}
		got, err := triageBodies(ctx, kept, rcp)
		if err != nil {
			return fmt.Errorf("%s: %v", step.name, err)
		}
		fresh, err := bootCluster(0, cfg)
		if err != nil {
			return err
		}
		for _, ops := range committed {
			if err == nil {
				err = fresh.c.Do(ctx, "POST", "/eco", timingd.OpsBody{Ops: ops}, nil)
			}
		}
		var want [][]byte
		if err == nil {
			want, err = triageBodies(ctx, fresh, rcp)
		}
		fresh.close()
		if err != nil {
			return fmt.Errorf("%s: fresh server: %v", step.name, err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return fmt.Errorf("%s: %s differs from a fresh server's:\n  kept:  %.300s\n  fresh: %.300s",
					step.name, triageTargets(rcp)[i], got[i], want[i])
			}
		}
	}
	return nil
}

// triageTargets are /triage and every scenario's /triage/extract.
func triageTargets(rcp core.Recipe) []string {
	out := []string{"/triage"}
	for _, sc := range rcp.Scenarios {
		out = append(out, "/triage/extract?scenario="+sc.Name)
	}
	return out
}

// triageBodies reads triageTargets from one rig, each body as sent.
func triageBodies(ctx context.Context, r *rig, rcp core.Recipe) ([][]byte, error) {
	targets := triageTargets(rcp)
	out := make([][]byte, len(targets))
	for i, target := range targets {
		var err error
		if out[i], _, err = r.c.Get(ctx, target); err != nil {
			return nil, fmt.Errorf("GET %s: %v", target, err)
		}
	}
	return out, nil
}

// checkTriageClusterMerge: the relation graph does not care where the
// scenarios live. A coordinator scattering per-scenario extraction to 1,
// 2 or 4 shards and merging at the center serves /triage byte-identical
// to one timingd holding the whole recipe — clusters, ranks, prune audit
// and pair accounting included.
func checkTriageClusterMerge(cx *Ctx) error {
	rcp := triageRecipe(cx.Lib, cx.Stack)
	pd, err := cx.triagePeriod()
	if err != nil {
		return err
	}
	cfg := timingd.Config{
		Design: cx.Design, Recipe: rcp, Stack: cx.Stack,
		BasePeriod: pd, Seed: cx.Spec.Seed, QueryWorkers: 2,
	}
	ctx := context.Background()
	ref, err := bootCluster(0, cfg)
	if err != nil {
		return fmt.Errorf("single-node boot: %v", err)
	}
	defer ref.close()
	var refBody json.RawMessage
	if err := ref.c.Do(ctx, "GET", "/triage", nil, &refBody); err != nil {
		return fmt.Errorf("single-node triage: %v", err)
	}
	var rep timingd.TriageReport
	if err := json.Unmarshal(refBody, &rep); err != nil {
		return fmt.Errorf("single-node triage body: %v", err)
	}
	if rep.Stats.Violations == 0 || len(rep.Clusters) == 0 {
		return fmt.Errorf("triage lab produced no violations at period %v", pd)
	}
	if rep.Stats.PrunedPairs == 0 {
		return fmt.Errorf("dominance pruning skipped nothing: %+v", rep.Stats)
	}
	return acrossShards(cfg, func(r *rig) error {
		var body json.RawMessage
		if err := r.c.Do(ctx, "GET", "/triage", nil, &body); err != nil {
			return fmt.Errorf("cluster triage: %v", err)
		}
		if !bytes.Equal(body, refBody) {
			return fmt.Errorf("triage reports diverge from single node:\n  single: %s\n  cluster: %s", refBody, body)
		}
		return nil
	})
}
