package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"newgame/internal/cts"
	"newgame/internal/ir"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/opt"
	"newgame/internal/place"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// Engine runs the closure loop on one design under one recipe.
type Engine struct {
	D      *netlist.Design
	Recipe Recipe
	// BasePeriod is the functional-mode clock period, ps.
	BasePeriod units.Ps
	// ClockPort roots the clock.
	ClockPort *netlist.Port
	// Parasitics is the design's RC trees; the fix passes assign their
	// non-default rules on it.
	Parasitics *sta.Parasitics
	// Place enables MinIA awareness (optional).
	Place *place.Placement
	// InputArrival is the external arrival window applied to every data
	// input port (min = max). Zero selects the 30 ps default; unconstrained
	// inputs would otherwise race every port-fed flip-flop's hold check,
	// which no real SDC allows.
	InputArrival units.Ps
	// Workers is the goroutine budget of signoff: 0 means one per available
	// CPU, 1 forces fully serial signoff. A survey splits it between
	// scenarios and each scenario's level-parallel propagation (see
	// Views.Workers); a fix pass or margin recovery re-timing one analyzer
	// has all of it. Results are identical at every setting — scenario
	// results merge in recipe order and each analyzer is deterministic.
	Workers int
	// Obs, when non-nil, records spans and metrics for the whole closure
	// run — per-iteration and per-fix-pass spans, per-scenario signoff
	// spans on worker tracks, violation gauges — and is forwarded to every
	// analyzer (see internal/obs). Recording never alters results.
	Obs *obs.Recorder

	uskew map[*netlist.Cell]units.Ps
	// resident holds the last survey's scenario set and the engine state it
	// was built from; the next survey re-runs it in place while that still
	// describes the engine (see runScenarios).
	resident struct {
		views *Views
		from  analyzerInputs
	}
	// obsParent is the span the next survey parents under (the in-flight
	// iteration during Close, nil for bare Survey calls); obsSurvey is the
	// in-flight survey span scenario spans attach to. Both are only read
	// by engine-internal code on the calling goroutine.
	obsParent, obsSurvey *obs.Span
}

// Breakdown categorizes the violations of one analysis pass — the "break
// down timing failures" step of Figure 1.
type Breakdown struct {
	SetupEndpoints int
	HoldEndpoints  int
	MaxTran        int
	MaxCap         int
	Noise          int
	// PBAReclassified counts setup endpoints whose violation vanished
	// under path-based analysis (pessimism-only violations).
	PBAReclassified int
}

// Total counts all violations.
func (b Breakdown) Total() int {
	return b.SetupEndpoints + b.HoldEndpoints + b.MaxTran + b.MaxCap + b.Noise
}

// ScenarioStatus is one scenario's timing after an iteration.
type ScenarioStatus struct {
	Name     string
	SetupWNS units.Ps
	HoldWNS  units.Ps
	SetupTNS units.Ps
}

// Iteration is one trip around the Figure 1 loop.
type Iteration struct {
	Index     int
	Scenarios []ScenarioStatus
	// MergedSetupWNS/MergedHoldWNS across scenarios.
	MergedSetupWNS, MergedHoldWNS units.Ps
	Breakdown                     Breakdown
	// Fixes applied this iteration, in order.
	Fixes []opt.Report
}

// Result is the full closure run.
type Result struct {
	Recipe     string
	Iterations []Iteration
	// Closed reports whether the final signoff is clean.
	Closed bool
	// Final is the signoff state after the last iteration.
	Final Iteration
	// AreaDelta/LeakageDelta accumulate fix costs.
	AreaDelta, LeakageDelta float64
}

// String renders the per-iteration convergence table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "closure %s: %d iterations, closed=%v\n", r.Recipe, len(r.Iterations), r.Closed)
	for _, it := range r.Iterations {
		fmt.Fprintf(&b, "  iter %d: setupWNS=%8.1f holdWNS=%8.1f viol=%d\n",
			it.Index, it.MergedSetupWNS, it.MergedHoldWNS, it.Breakdown.Total())
	}
	return b.String()
}

// recordIteration publishes one survey's merged WNS and violation counts:
// gauges track the latest state (what a convergence dashboard would show),
// span args make each iteration self-describing in the trace. Non-finite
// WNS values (recipes with no setup or no hold scenarios) are skipped.
func (e *Engine) recordIteration(it Iteration, sp *obs.Span) {
	if e.Obs == nil {
		return
	}
	b := it.Breakdown
	e.Obs.Gauge("close.setup_endpoints").Set(float64(b.SetupEndpoints))
	e.Obs.Gauge("close.hold_endpoints").Set(float64(b.HoldEndpoints))
	e.Obs.Gauge("close.drc_violations").Set(float64(b.MaxTran + b.MaxCap))
	e.Obs.Gauge("close.noise_violations").Set(float64(b.Noise))
	e.Obs.Gauge("close.total_violations").Set(float64(b.Total()))
	if !math.IsInf(float64(it.MergedSetupWNS), 0) {
		e.Obs.Gauge("close.setup_wns_ps").Set(float64(it.MergedSetupWNS))
		sp.SetFloat("setup_wns", float64(it.MergedSetupWNS))
	}
	if !math.IsInf(float64(it.MergedHoldWNS), 0) {
		e.Obs.Gauge("close.hold_wns_ps").Set(float64(it.MergedHoldWNS))
		sp.SetFloat("hold_wns", float64(it.MergedHoldWNS))
	}
	sp.SetFloat("violations", float64(b.Total()))
}

// skewScale converts useful-skew offsets (scheduled in the reference
// scenario's time base) to a scenario library's time base: skew buffers
// speed up and slow down with the corner like every other cell.
func (e *Engine) skewScale(lib *liberty.Library) float64 {
	ref := e.Recipe.Scenarios[0].Lib
	den := ref.Tech.Req(liberty.SVT, 1, ref.PVT) * ref.Tech.CinUnit
	num := lib.Tech.Req(liberty.SVT, 1, lib.PVT) * lib.Tech.CinUnit
	if den <= 0 || num <= 0 {
		return 1
	}
	return num / den
}

// ConstraintsFor builds the SDC view of one scenario on a design: the
// mode-scaled clock with the scenario's uncertainties rooted at clockPort,
// and an external arrival window on every data input port (inputArrival of
// 0 selects the 30 ps default — unconstrained inputs would race every
// port-fed flip-flop's hold check, which no real SDC allows). It is the
// scenario-dependent, netlist-independent half of analyzer construction,
// shared by the closure engine and the resident timingd service.
func ConstraintsFor(d *netlist.Design, clockPort *netlist.Port, basePeriod, inputArrival units.Ps, s Scenario) *sta.Constraints {
	cons := sta.NewConstraints()
	// Sized once, for every port: the fill never grows it.
	cons.InputDelay = make(map[*netlist.Port]sta.IODelay, len(d.Ports))
	fillConstraints(cons, d, clockPort, basePeriod, inputArrival, s)
	return cons
}

// fillConstraints refills cons with ConstraintsFor's view of scenario s, on
// cons's own storage.
func fillConstraints(cons *sta.Constraints, d *netlist.Design, clockPort *netlist.Port, basePeriod, inputArrival units.Ps, s Scenario) {
	cons.Reset()
	ck := cons.AddClock("clk", basePeriod*s.PeriodScale, clockPort)
	ck.SetupUncertainty = s.SetupUncertainty
	ck.HoldUncertainty = s.HoldUncertainty
	arrive := inputArrival
	if arrive == 0 {
		arrive = 30
	}
	for _, p := range d.Ports {
		if p.Dir == netlist.Input && p != clockPort {
			cons.InputDelay[p] = sta.IODelay{Min: arrive, Max: arrive}
		}
	}
}

// tune adds the engine-only inputs to one scenario's constraints and
// analyzer config (see Views.Each): the current useful-skew schedule and its
// scale into the scenario library's time base, the IR-droop derate map, and
// the span the analyzer's sta-level spans parent under.
func (e *Engine) tune(s Scenario, cons *sta.Constraints, cfg *sta.Config, parent *obs.Span) {
	for ff, off := range e.uskew {
		cons.ExtraCKLatency[ff] = off
	}
	cfg.CKLatencyScale = e.skewScale(s.Lib)
	cfg.ObsSpan = parent
	if s.DynamicIR && e.Place != nil {
		droop := ir.Run(e.Place, s.Lib, ir.DefaultConfig())
		cfg.CellDerate = droop.DerateFn()
	}
}

// views describes a scenario set over the engine's current netlist,
// parasitics and placement.
func (e *Engine) views(scen []Scenario, each func(Scenario, int, *sta.Constraints, *sta.Config) func()) *Views {
	return &Views{
		D: e.D, ClockPort: e.ClockPort, BasePeriod: e.BasePeriod, InputArrival: e.InputArrival,
		Scenarios: scen, Parasitics: e.Parasitics,
		Workers: e.Workers, Obs: e.Obs,
		Each: each,
	}
}

// analyzerInputs is everything views and tune read from the engine that a
// built analyzer holds on to, the scenarios aside. The netlist enters by
// identity alone: retyped cells, NDRs, the skew schedule and structural edits
// — inserted buffers included — are all picked up by a re-run.
type analyzerInputs struct {
	d            *netlist.Design
	clockPort    *netlist.Port
	basePeriod   units.Ps
	inputArrival units.Ps
	obs          *obs.Recorder
	place        *place.Placement
	parasitics   *sta.Parasitics
}

// sameScenario reports whether two scenarios configure identical analyzers.
// The derate model compares deeply (AOCV carries table slices), the rest by
// value and pointer identity.
func sameScenario(a, b Scenario) bool {
	da, db := a.Derate, b.Derate
	a.Derate, b.Derate = nil, nil
	return a == b && reflect.DeepEqual(da, db)
}

// residentsCurrent reports whether the last survey's analyzers still
// describe the engine, so that re-running them equals rebuilding them.
func (e *Engine) residentsCurrent(in analyzerInputs) bool {
	r := &e.resident
	if r.views == nil || r.from != in || len(r.views.Scenarios) != len(e.Recipe.Scenarios) {
		return false
	}
	for i, s := range e.Recipe.Scenarios {
		if !sameScenario(s, r.views.Scenarios[i]) {
			return false
		}
	}
	return true
}

// surveyScenario is the survey's Views.Each hook: the scenario runs under
// its own span on worker track g+1 (track 0 is the main goroutine) and
// bumps that worker's occupancy counter, so the metrics dump shows how
// balanced the pool ran.
func (e *Engine) surveyScenario(s Scenario, g int, cons *sta.Constraints, cfg *sta.Config) func() {
	sp := e.Obs.Start("scenario:"+s.Name, e.obsSurvey).OnTrack(g + 1)
	e.tune(s, cons, cfg, sp)
	return func() {
		sp.End()
		if e.Obs != nil {
			e.Obs.Counter(fmt.Sprintf("core.worker_%02d.scenarios", g)).Add(1)
		}
	}
}

// runScenarios brings the engine's resident scenario set (see Views) up to
// date.
//
// The set stays with the engine between surveys. While nothing it was built
// from has changed — the engine's fields, the scenarios — a survey re-runs it
// in place and pays only for the nets, masters and graph that moved;
// otherwise it is rebuilt. Workers is not among them: every fan-out reads it
// afresh.
func (e *Engine) runScenarios() ([]*sta.Analyzer, error) {
	in := analyzerInputs{
		d: e.D, clockPort: e.ClockPort,
		basePeriod: e.BasePeriod, inputArrival: e.InputArrival,
		obs: e.Obs, place: e.Place, parasitics: e.Parasitics,
	}
	var err error
	if e.residentsCurrent(in) {
		e.resident.views.Workers = e.Workers
		err = e.resident.views.Rerun(context.Background())
	} else {
		e.resident.from = in
		e.resident.views = e.views(append([]Scenario(nil), e.Recipe.Scenarios...), e.surveyScenario)
		err = e.resident.views.Build(context.Background())
	}
	if err != nil {
		// A failed run leaves the analyzers half-timed: forget them.
		e.resident.views = nil
		return nil, err
	}
	return e.resident.views.Analyzers(), nil
}

// survey runs every scenario and merges the results. It returns the
// analyzers of the worst-setup, worst-hold and most-DRC-violating views so
// the fix phase operates where the problems actually are.
func (e *Engine) survey() (Iteration, *sta.Analyzer, *sta.Analyzer, *sta.Analyzer, error) {
	sp := e.Obs.Start("core.survey", e.obsParent)
	defer sp.End()
	e.obsSurvey = sp
	it := Iteration{MergedSetupWNS: math.Inf(1), MergedHoldWNS: math.Inf(1)}
	var worstSetup, worstHold, worstDRC *sta.Analyzer
	wsv, whv := math.Inf(1), math.Inf(1)
	maxDRC := 0
	as, err := e.runScenarios()
	if err != nil {
		return it, nil, nil, nil, err
	}
	for si, s := range e.Recipe.Scenarios {
		a := as[si]
		st := ScenarioStatus{Name: s.Name}
		if s.ForSetup {
			sum := a.Summary(sta.Setup)
			st.SetupWNS, st.SetupTNS = sum.Worst, sum.TNS
			if st.SetupWNS < wsv {
				wsv, worstSetup = st.SetupWNS, a
			}
			if st.SetupWNS < it.MergedSetupWNS {
				it.MergedSetupWNS = st.SetupWNS
			}
			it.Breakdown.SetupEndpoints += sum.Violations
		} else {
			st.SetupWNS = math.Inf(1)
		}
		if s.ForHold {
			sum := a.Summary(sta.Hold)
			st.HoldWNS = sum.Worst
			if st.HoldWNS < whv {
				whv, worstHold = st.HoldWNS, a
			}
			if st.HoldWNS < it.MergedHoldWNS {
				it.MergedHoldWNS = st.HoldWNS
			}
			it.Breakdown.HoldEndpoints += sum.Violations
		} else {
			st.HoldWNS = math.Inf(1)
		}
		drc := a.DRCViolations()
		for _, v := range drc {
			if v.Kind == "max_tran" {
				it.Breakdown.MaxTran++
			} else {
				it.Breakdown.MaxCap++
			}
		}
		noise := a.NoiseViolations()
		it.Breakdown.Noise += len(noise)
		if len(drc)+len(noise) > maxDRC {
			maxDRC = len(drc) + len(noise)
			worstDRC = a
		}
		it.Scenarios = append(it.Scenarios, st)
	}
	// PBA reclassification on the worst setup scenario.
	if e.Recipe.UsePBA && worstSetup != nil {
		n := e.Recipe.PBAEndpoints
		if n == 0 {
			n = 50
		}
		// Only violating paths are reclassified, so only those are walked.
		n = min(n, worstSetup.Summary(sta.Setup).Violations)
		for _, p := range worstSetup.WorstPaths(sta.Setup, n) {
			if p.GBASlack >= 0 {
				break
			}
			if worstSetup.PBA(p).Slack >= 0 {
				it.Breakdown.PBAReclassified++
			}
		}
	}
	return it, worstSetup, worstHold, worstDRC, nil
}

// Survey runs a single analysis pass over every scenario without fixing
// anything — the "run STA, break down failures" step alone, also useful
// for signoff-only comparisons between recipes.
func (e *Engine) Survey() (Iteration, error) {
	it, _, _, _, err := e.survey()
	return it, err
}

// Analyzers returns the last survey's analyzers in recipe order, each timed
// as of that survey, or nil before the first. The next survey re-times them
// in place, so a caller holds them only until then.
func (e *Engine) Analyzers() []*sta.Analyzer {
	if e.resident.views == nil {
		return nil
	}
	return e.resident.views.Analyzers()
}

// SetUsefulSkew replaces the engine's useful-skew schedule: per-flip-flop
// clock-arrival offsets in the reference scenario's time base, the state
// Close's last fix lever accumulates. It lets a design be surveyed under
// the schedule it was closed with. The map is copied.
func (e *Engine) SetUsefulSkew(offsets map[*netlist.Cell]units.Ps) {
	e.uskew = make(map[*netlist.Cell]units.Ps, len(offsets))
	for ff, off := range offsets {
		e.uskew[ff] = off
	}
}

// Close runs the Figure 1 loop to completion or iteration exhaustion.
func (e *Engine) Close() (*Result, error) {
	if err := e.Recipe.Validate(); err != nil {
		return nil, err
	}
	if e.uskew == nil {
		e.uskew = map[*netlist.Cell]units.Ps{}
	}
	root := e.Obs.Start("close."+e.Recipe.Name, nil)
	defer root.End()
	defer func() { e.obsParent = nil }()
	res := &Result{Recipe: e.Recipe.Name}
	for iter := 1; iter <= e.Recipe.MaxIterations; iter++ {
		itSp := e.Obs.Start("close.iteration", root).SetFloat("iter", float64(iter))
		e.obsParent = itSp
		it, worstSetup, worstHold, worstDRC, err := e.survey()
		if err != nil {
			itSp.End()
			return nil, err
		}
		it.Index = iter
		e.recordIteration(it, itSp)
		if e.Recipe.closed(it) {
			itSp.End()
			res.Iterations = append(res.Iterations, it)
			res.Closed = true
			res.Final = it
			e.obsParent = root
			if err := e.recoverMargin(res); err != nil {
				return nil, err
			}
			return res, nil
		}
		err = e.repair(&it, res, itSp, worstSetup, worstHold, worstDRC)
		itSp.End()
		if err != nil {
			return nil, err
		}
		res.Iterations = append(res.Iterations, it)
	}
	// Final signoff after the last repair pass.
	e.obsParent = root
	fin, _, _, _, err := e.survey()
	if err != nil {
		return nil, err
	}
	fin.Index = e.Recipe.MaxIterations + 1
	e.recordIteration(fin, nil)
	res.Final = fin
	res.Closed = e.Recipe.closed(fin)
	res.Iterations = append(res.Iterations, fin)
	if res.Closed {
		if err := e.recoverMargin(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// closed reports whether a survey meets signoff under the recipe: nothing
// violates, or — when the recipe signs off path-based — the only violations
// left are setup endpoints PBA reclassified as pessimism, which do not need
// fixing.
func (r Recipe) closed(it Iteration) bool {
	b := it.Breakdown
	if it.MergedSetupWNS >= 0 && it.MergedHoldWNS >= 0 && b.Total() == 0 {
		return true
	}
	return r.UsePBA && it.MergedHoldWNS >= 0 &&
		b.SetupEndpoints <= b.PBAReclassified && b.MaxTran+b.MaxCap+b.Noise == 0
}

// repair is one iteration's fix phase, in the Figure 1 ordering, on the
// views the survey found worst. Every pass runs under its own span and is
// booked the same way: its report joins the iteration, its cost the result.
// A pass on another analyzer than the one before it adopts that one's
// graph, which timed the netlist as the earlier passes left it: its opening
// Run then levelizes nothing the set already holds.
func (e *Engine) repair(it *Iteration, res *Result, itSp *obs.Span, worstSetup, worstHold, worstDRC *sta.Analyzer) error {
	var last *sta.Analyzer
	fix := func(span string, a *sta.Analyzer, pass func() (opt.Report, error)) error {
		if last != nil && last != a {
			a.Cfg.Topology = last.Topology()
		}
		last = a
		sp := e.Obs.Start(span, itSp)
		rep, err := pass()
		sp.SetFloat("changed", float64(rep.Changed)).End()
		if err != nil {
			return err
		}
		it.Fixes = append(it.Fixes, rep)
		res.AreaDelta += rep.AreaDelta
		res.LeakageDelta += rep.LeakageDelta
		return nil
	}
	if worstSetup != nil && it.MergedSetupWNS < 0 {
		ctx := &opt.Context{A: worstSetup, Lib: worstSetup.Cfg.Lib, Place: e.Place}
		vopts := opt.DefaultVtSwap()
		vopts.MinIAAware = e.Recipe.MinIAAware
		for _, step := range []struct {
			name string
			run  func() (opt.Report, error)
		}{
			{"vt_swap", func() (opt.Report, error) { return opt.VtSwap(ctx, vopts) }},
			{"resize", func() (opt.Report, error) { return opt.Resize(ctx, opt.DefaultResize()) }},
			{"fix_drc", func() (opt.Report, error) { return opt.FixDRC(ctx, opt.DefaultBuffer()) }},
			{"ndr", func() (opt.Report, error) { return opt.ApplyNDR(ctx, 30) }},
		} {
			if err := fix("fix."+step.name, ctx.A, step.run); err != nil {
				return err
			}
			if ctx.A.WorstSlack(sta.Setup) >= 0 {
				break
			}
		}
		if e.Recipe.UseUsefulSkew && ctx.A.WorstSlack(sta.Setup) < 0 {
			err := fix("fix.useful_skew", ctx.A, func() (opt.Report, error) {
				us, err := cts.ScheduleUsefulSkew(ctx.A, ctx.Lib, cts.DefaultUsefulSkew())
				if err != nil {
					return opt.Report{}, err
				}
				for ff, off := range us.Offsets {
					e.uskew[ff] = off
				}
				return opt.Report{
					Pass: "useful_skew", Changed: us.Adjusted,
					WNSBefore: us.WNSBefore, WNSAfter: us.WNSAfter,
				}, nil
			})
			if err != nil {
				return err
			}
		}
	}
	if worstHold != nil && it.MergedHoldWNS < 0 {
		ctx := &opt.Context{A: worstHold, Lib: worstHold.Cfg.Lib, SetupGuard: worstSetup}
		if err := fix("fix.hold", ctx.A, func() (opt.Report, error) { return opt.FixHold(ctx, 100) }); err != nil {
			return err
		}
	}
	// DRC and noise closure run regardless of timing state (the "last
	// set of manual noise and DRC fixes" never waits for slack), on the
	// scenario that actually reports them.
	a := worstDRC
	if a == nil {
		a = worstSetup
	}
	if a == nil {
		a = worstHold
	}
	if a == nil {
		return nil
	}
	ctx := &opt.Context{A: a, Lib: a.Cfg.Lib}
	if it.Breakdown.MaxTran+it.Breakdown.MaxCap > 0 {
		if err := fix("fix.drc_closure", a, func() (opt.Report, error) { return opt.FixDRC(ctx, opt.DefaultBuffer()) }); err != nil {
			return err
		}
	}
	if it.Breakdown.Noise > 0 {
		return fix("fix.noise", a, func() (opt.Report, error) { return opt.FixNoise(ctx, 60) })
	}
	return nil
}

// recoverMargin spends surplus slack on leakage and area once signoff is
// clean, then re-verifies. Recovery edits and re-times the first setup
// scenario's resident analyzer, which the survey that found signoff clean
// left current; the conservative slack floor keeps every scenario met, and
// each batch's Verify survey re-runs that analyzer in place with the rest.
// A Verify survey that fails ends recovery with its error.
func (e *Engine) recoverMargin(res *Result) error {
	if !e.Recipe.RecoverAfterClose {
		return nil
	}
	floor := e.Recipe.RecoverySlackFloor
	if floor == 0 {
		floor = 60
	}
	si := slices.IndexFunc(e.Recipe.Scenarios, func(s Scenario) bool { return s.ForSetup })
	if si < 0 {
		return nil
	}
	rsp := e.Obs.Start("close.recover_margin", e.obsParent)
	defer rsp.End()
	a := e.resident.views.Analyzers()[si]
	a.Cfg.ObsSpan = rsp
	ctx := &opt.Context{A: a, Lib: a.Cfg.Lib, Place: e.Place}
	// Cross-scenario acceptance: every recovery batch must keep the whole
	// MCMM survey clean, not just the recovery view (§2.3's ping-pong).
	ctx.Verify = func() (bool, error) {
		it, _, _, _, err := e.survey()
		a.Cfg.ObsSpan = rsp
		return err == nil && e.Recipe.closed(it), err
	}
	leak, err := opt.LeakageRecovery(ctx, floor, 600)
	if err != nil {
		return err
	}
	area, err := opt.AreaRecovery(ctx, floor, 600)
	if err != nil {
		return err
	}
	res.LeakageDelta += leak.LeakageDelta + area.LeakageDelta
	res.AreaDelta += leak.AreaDelta + area.AreaDelta
	fin, _, _, _, err := e.survey()
	if err != nil {
		return err
	}
	fin.Index = res.Final.Index + 1
	fin.Fixes = []opt.Report{leak, area}
	res.Final = fin
	res.Iterations = append(res.Iterations, fin)
	res.Closed = e.Recipe.closed(fin)
	return nil
}
