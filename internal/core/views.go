package core

import (
	"context"
	"fmt"
	"sync"

	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/sta"
	"newgame/internal/units"
	"newgame/internal/workpool"
)

// Views is the resident scenario set: one timed analyzer per scenario, in
// recipe order, over one design and one frozen sta.Topology. It is the
// only place the repository builds N analyzers over one netlist — the
// closure engine's surveys, a timingd session (a restored one included),
// the triage CLI and the conformance laws all hold one.
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
	// Workers is the set's one goroutine budget, W (0 = one per CPU, as
	// workpool.Workers reads it), split here and nowhere else: a fan-out
	// over S scenarios runs min(W, S) of them at once, each Run in it with
	// ⌊W / min(W, S)⌋ workers, and an analyzer re-timed alone afterwards —
	// by a caller, or by Update's fallback to Run — has all W. It is read
	// at every fan-out.
	Workers int
	Obs     *obs.Recorder
	// Each, when non-nil, sees every scenario's constraints and analyzer
	// config just before worker g builds or re-runs it, and may add to
	// either; the func it returns, if any, is called when that run ends. A
	// re-run adopts the constraints, CellDerate, ObsSpan and Topology it
	// leaves — everything else in the config is fixed at Build, bar Workers,
	// which Views stamps on every run and a hook's setting never reaches.
	Each func(s Scenario, g int, cons *sta.Constraints, cfg *sta.Config) (done func())

	as []*sta.Analyzer
}

// Analyzers returns the set in recipe order, nil before the first Build.
func (v *Views) Analyzers() []*sta.Analyzer { return v.as }

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
// scenarios fan out. The first scenario is constructed first, alone, and
// levelizes the design; the rest adopt its topology read-only as they are
// constructed in the fan-out, so the graph is built once per Build. On
// error — cancellation included — the set is left as it was.
func (v *Views) Build(ctx context.Context) error {
	v.refresh()
	as, err := v.each(ctx, false, func(_ int, cons *sta.Constraints, cfg sta.Config) (*sta.Analyzer, error) {
		return sta.New(v.D, cons, cfg)
	})
	if err != nil {
		return err
	}
	v.as = as
	v.publishResident()
	return nil
}

// Rerun fully re-times every analyzer in place under freshly assembled
// constraints, refilled on each analyzer's own maps, which equals a Build
// whatever has been edited since the last one: the parasitics table is
// refreshed once, every master is re-resolved, exactly the nets whose tree
// or sink caps moved are recomputed, and after a structural edit the first
// analyzer brings its graph current alone — a journaled buffer edit is
// patched in, any other edit re-derives the graph — and the rest adopt its
// topology as they run, as in Build.
// A failed Rerun leaves the analyzers half-timed.
func (v *Views) Rerun(ctx context.Context) error {
	v.refresh()
	_, err := v.each(ctx, true, func(i int, _ *sta.Constraints, cfg sta.Config) (*sta.Analyzer, error) {
		a := v.as[i]
		a.Cfg.CellDerate, a.Cfg.ObsSpan, a.Cfg.Topology = cfg.CellDerate, cfg.ObsSpan, cfg.Topology
		if i == 0 {
			return a, a.RefreshGraph()
		}
		return a, nil
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
// scenario however many edits were batched. The scenarios run one after
// another on the caller: an update is a cone, not a graph, and on a
// resident server's writer it runs between reads that a fan-out would
// compete with for the same cores.
func (v *Views) Update(ctx context.Context) error {
	for _, a := range v.as {
		if err := a.UpdateCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

// inputs assembles scenario i's constraints and analyzer config and passes
// them through Each. With refill the constraints are analyzer i's own,
// refilled in place; otherwise they are new.
func (v *Views) inputs(i, g int, topo *sta.Topology, refill bool) (*sta.Constraints, sta.Config, func()) {
	s := v.Scenarios[i]
	var cons *sta.Constraints
	if refill {
		cons = v.as[i].Cons
		fillConstraints(cons, v.D, v.ClockPort, v.BasePeriod, v.InputArrival, s)
	} else {
		cons = ConstraintsFor(v.D, v.ClockPort, v.BasePeriod, v.InputArrival, s)
	}
	cfg := sta.Config{
		Lib: s.Lib, Parasitics: v.Parasitics, Scaling: s.Scaling,
		Derate: s.Derate, SI: s.SI, MIS: s.MIS, Obs: v.Obs,
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

// each readies every scenario's analyzer with ready and times it, in one
// fan-out, assembling its inputs as inputs does with refill. Scenario 0 goes
// first, alone on the calling goroutine as worker 0: its inputs carry no
// topology to adopt and ready brings its graph current. Then every scenario
// is timed across the pool, scenario 0 as worker 0's first job
// (workpool.DoObs) — so the g its hook saw is the worker that runs it — and
// each other scenario i is assembled and readied on its worker g against
// scenario 0's topology first. Each hook's done func runs once, when its
// scenario's run ends or fails. The budget is split as Workers says: each
// run gets the lanes' share of it, and every analyzer is left holding all
// of it for whoever re-times it alone next. each returns the analyzers in
// recipe order, or the first error in recipe order wrapped with the
// scenario's name; a scenario 0 that fails to ready fans nothing out. A
// panic in any scenario reaches the caller once the others are done.
func (v *Views) each(ctx context.Context, refill bool, ready func(i int, cons *sta.Constraints, cfg sta.Config) (*sta.Analyzer, error)) ([]*sta.Analyzer, error) {
	n := len(v.Scenarios)
	if n == 0 {
		return nil, nil
	}
	w := workpool.Workers(v.Workers)
	lanes := min(w, n)
	as := make([]*sta.Analyzer, n)
	errs := make([]error, n)
	cons, cfg, done0 := v.inputs(0, 0, nil, refill)
	end0 := sync.OnceFunc(done0)
	defer end0()
	if as[0], errs[0] = ready(0, cons, cfg); errs[0] == nil {
		workpool.DoObs(nil, nil, "", lanes, n, func(i, g int) {
			if i == 0 {
				defer end0()
			} else {
				cons, cfg, done := v.inputs(i, g, as[0].Topology(), refill)
				defer done()
				if as[i], errs[i] = ready(i, cons, cfg); errs[i] != nil {
					return
				}
			}
			as[i].Cfg.Workers = w / lanes
			errs[i] = as[i].RunCtx(ctx)
			as[i].Cfg.Workers = w
		})
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", v.Scenarios[i].Name, err)
		}
	}
	return as, nil
}
