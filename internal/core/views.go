package core

import (
	"context"
	"fmt"

	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/sta"
	"newgame/internal/units"
	"newgame/internal/workpool"
)

// Views is the resident scenario set: one timed analyzer per scenario, in
// recipe order, over one design and one frozen sta.Topology. It is the
// only place the repository builds N analyzers over one netlist — the
// closure engine's surveys, both timingd epoch snapshots, the triage CLI
// and the conformance laws all hold one.
//
// The exported fields are what every analyzer is built from; the caller
// sets them once and Build and Rerun read them again on every call.
// Whatever the scenario fan-out, results are identical: each scenario
// writes only its own slot and errors are reported in recipe order.
type Views struct {
	D            *netlist.Design
	ClockPort    *netlist.Port
	BasePeriod   units.Ps
	InputArrival units.Ps
	Scenarios    []Scenario
	Parasitics   *sta.Parasitics
	// Workers bounds the scenario fan-out, AnalysisWorkers each analyzer's
	// level-parallel propagation (both as workpool.Workers reads them).
	Workers, AnalysisWorkers int
	Obs                      *obs.Recorder
	// Each, when non-nil, sees every scenario's constraints and analyzer
	// config just before worker g builds or re-runs it, and may add to
	// either; the func it returns, if any, is called when that run ends. A
	// re-run adopts the constraints, CellDerate, ObsSpan and Topology it
	// leaves — everything else in the config is fixed at Build.
	Each func(s Scenario, g int, cons *sta.Constraints, cfg *sta.Config) (done func())

	as []*sta.Analyzer
}

// Analyzers returns the set in recipe order, nil before the first Build.
func (v *Views) Analyzers() []*sta.Analyzer { return v.as }

// Topology returns the frozen graph every analyzer shares, nil before the
// first Build. It seeds the Build of another set over a Clone of the same
// design: vertex numbering is a pure function of design order.
func (v *Views) Topology() *sta.Topology {
	if len(v.as) == 0 {
		return nil
	}
	return v.as[0].Topology()
}

// Find resolves a scenario name to its index; the empty name selects the
// first scenario.
func (v *Views) Find(name string) (int, error) {
	for i, s := range v.Scenarios {
		if s.Name == name || name == "" {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown scenario %q", name)
}

// Build constructs and fully times a fresh analyzer per scenario against
// the design as it is now, the parasitics table refreshed once before the
// scenarios fan out. The first scenario adopts seed when it is
// compatible and levelizes otherwise; either way the rest adopt the first's
// topology read-only, so the graph is built at most once per Build. On
// error — cancellation included — the set is left as it was.
func (v *Views) Build(ctx context.Context, seed *sta.Topology) error {
	as := make([]*sta.Analyzer, len(v.Scenarios))
	v.refresh()
	err := v.each(func(i, g int) error {
		topo := seed
		if i > 0 {
			topo = as[0].Topology()
		}
		cons, cfg, done := v.inputs(i, g, topo)
		defer done()
		a, err := sta.New(v.D, cons, cfg)
		if err != nil {
			return err
		}
		as[i] = a
		return a.RunCtx(ctx)
	})
	if err != nil {
		return err
	}
	v.as = as
	v.publishResident()
	return nil
}

// Rerun fully re-times every analyzer in place under freshly assembled
// constraints, which equals a Build whatever has been edited since the last
// one: the parasitics table is refreshed once, every master is re-resolved,
// exactly the nets whose tree or sink caps moved are recomputed, and after a
// structural edit each analyzer re-derives its graph on its own storage —
// the first levelizing, the rest adopting its topology, as in Build. A
// failed Rerun leaves the analyzers half-timed.
func (v *Views) Rerun(ctx context.Context) error {
	v.refresh()
	err := v.each(func(i, g int) error {
		a := v.as[i]
		var topo *sta.Topology
		if i > 0 {
			topo = v.as[0].Topology()
		}
		cons, cfg, done := v.inputs(i, g, topo)
		defer done()
		a.Cons, a.Cfg.CellDerate, a.Cfg.ObsSpan, a.Cfg.Topology = cons, cfg.CellDerate, cfg.ObsSpan, cfg.Topology
		return a.RunCtx(ctx)
	})
	if err == nil {
		v.publishResident()
	}
	return err
}

// refresh brings the parasitics table up to date with the design and counts
// the nets it routed.
func (v *Views) refresh() {
	v.Obs.Counter("core.views.nets_routed").Add(int64(v.Parasitics.Refresh(v.D)))
}

// publishResident sets the resident-byte gauges: what the set's analyzers
// hold, summed by owner (sta.Resident), and the parasitics table's trees.
func (v *Views) publishResident() {
	if v.Obs == nil {
		return
	}
	var r sta.Resident
	for _, a := range v.as {
		b := a.ResidentBytes()
		r.Planes += b.Planes
		r.NetCache += b.NetCache
		r.ArcGroups += b.ArcGroups
	}
	v.Obs.Gauge("core.views.planes_bytes").Set(float64(r.Planes))
	v.Obs.Gauge("core.views.net_cache_bytes").Set(float64(r.NetCache))
	v.Obs.Gauge("core.views.arc_group_bytes").Set(float64(r.ArcGroups))
	v.Obs.Gauge("core.views.tree_bytes").Set(float64(v.Parasitics.TreeBytes()))
}

// Update re-times every analyzer incrementally from the cells and nets
// invalidated on it since its last run — one cone re-propagation per
// scenario however many edits were batched.
func (v *Views) Update(ctx context.Context) error {
	for _, a := range v.as {
		if err := a.UpdateCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

// inputs assembles scenario i's constraints and analyzer config and passes
// them through Each.
func (v *Views) inputs(i, g int, topo *sta.Topology) (*sta.Constraints, sta.Config, func()) {
	s := v.Scenarios[i]
	cons := ConstraintsFor(v.D, v.ClockPort, v.BasePeriod, v.InputArrival, s)
	cfg := sta.Config{
		Lib: s.Lib, Parasitics: v.Parasitics, Scaling: s.Scaling,
		Derate: s.Derate, SI: s.SI, MIS: s.MIS,
		Workers: v.AnalysisWorkers, Obs: v.Obs,
		Topology: topo,
	}
	done := func() {}
	if v.Each != nil {
		if d := v.Each(s, g, cons, &cfg); d != nil {
			done = d
		}
	}
	return cons, cfg, done
}

// each runs fn(i, g) for every scenario i on worker g: the first on the
// calling goroutine, the rest — once it has succeeded — across the pool.
// It returns the first error in recipe order, wrapped with the scenario's
// name.
func (v *Views) each(fn func(i, g int) error) error {
	n := len(v.Scenarios)
	if n == 0 {
		return nil
	}
	errs := make([]error, n)
	if errs[0] = fn(0, 0); errs[0] == nil {
		workpool.DoObs(nil, nil, "", v.Workers, n-1, func(i, g int) {
			errs[i+1] = fn(i+1, g)
		})
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("scenario %s: %w", v.Scenarios[i].Name, err)
		}
	}
	return nil
}
