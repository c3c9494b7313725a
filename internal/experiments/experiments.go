// Package experiments regenerates every figure and quantitative claim of
// the paper (see DESIGN.md's per-experiment index E1–E13). Each experiment
// is a pure function returning a rendered text report plus the key numbers
// EXPERIMENTS.md records; cmd/experiments and the root benchmarks are thin
// wrappers.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"newgame/internal/aging"
	"newgame/internal/avs"
	"newgame/internal/beolcorner"
	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/ffchar"
	"newgame/internal/liberty"
	"newgame/internal/mcmm"
	"newgame/internal/nodes"
	"newgame/internal/obs"
	"newgame/internal/parasitics"
	"newgame/internal/place"
	"newgame/internal/report"
	"newgame/internal/spice"
	"newgame/internal/sta"
	"newgame/internal/variation"
)

// Result is one regenerated experiment.
type Result struct {
	ID    string
	Title string
	// Text is the rendered report.
	Text string
	// Keys holds the headline numbers for EXPERIMENTS.md.
	Keys map[string]float64
}

// Obs, when non-nil, is attached to every closure engine and sampler pool
// the experiments build — cmd/experiments wires its -metrics/-trace flags
// here. Nil (the default) records nothing.
var Obs *obs.Recorder

// Workers bounds every characterization pool the experiments touch —
// library generation, Monte Carlo fan-outs, flip-flop searches (0 = one
// worker per CPU, 1 = serial). Figure output is identical either way;
// cmd/experiments wires its -workers flag here.
var Workers int

// mcOpts bundles the experiment-wide knobs for the variation samplers.
func mcOpts() variation.MCOpts { return variation.MCOpts{Workers: Workers, Obs: Obs} }

// Entry registers an experiment.
type Entry struct {
	ID    string
	Title string
	Run   func() Result
}

// All lists every experiment in paper order.
func All() []Entry {
	return []Entry{
		{"fig1", "Closure loop iterations (Figure 1)", Fig01ClosureLoop},
		{"fig2", "Old vs new goal posts (Figure 2)", Fig02OldVsNew},
		{"fig3", "Care-abouts by node (Figure 3)", Fig03CareAbouts},
		{"fig4", "MIS vs SIS NAND2 arc delays (Figure 4)", Fig04MIS},
		{"fig5", "SADP CD sigma by patterning case (Figure 5)", Fig05SADP},
		{"fig6a", "MinIA violations and repair (Figure 6a)", Fig06aMinIA},
		{"fig6b", "Temperature inversion (Figure 6b)", Fig06bTempInversion},
		{"fig6c", "Gate-wire balance vs voltage (Section 2.3)", Fig06cGateWire},
		{"fig7", "Monte Carlo path delay asymmetry (Figure 7)", Fig07MCAsymmetry},
		{"fig8", "Tightened BEOL corners (Figure 8)", Fig08TBC},
		{"fig9", "Aging signoff corners with AVS (Figure 9)", Fig09AgingAVS},
		{"fig10", "Flip-flop setup/hold/c2q interdependency (Figure 10)", Fig10FFInterdep},
		{"fig11", "PBA vs GBA pessimism and runtime (Section 1.3)", Fig11PBAvsGBA},
		{"fig12", "Corner super-explosion (Section 2.3)", Fig12CornerExplosion},
		{"fig13", "AVS enables typical-corner signoff (Section 3.3)", Fig13AVSTypical},
		{"ablation", "Design-choice ablations (DESIGN.md section 4)", Ablations},
		{"lowpower", "Low-power techniques vs closure burden (Section 1.2)", LowPower},
	}
}

// Find returns the entry with the given id, or nil.
func Find(id string) *Entry {
	for _, e := range All() {
		if e.ID == id {
			cp := e
			return &cp
		}
	}
	return nil
}

// ---------------------------------------------------------------- E1 ----

// Fig01ClosureLoop reproduces the Figure 1 flow: five analyze/fix
// iterations on an SoC block, WNS/TNS improving per iteration, with the
// recommended fix ordering.
func Fig01ClosureLoop() Result {
	recipe := core.OldGoalPosts(liberty.Node16, parasitics.Stack16())
	lib := recipe.Scenarios[0].Lib
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "soc", Inputs: 24, Outputs: 24, FFs: 96, Gates: 1400,
		MaxDepth: 13, Seed: 101, ClockBufferLevels: 3,
		VtMix: [3]float64{0, 0.4, 0.6},
	})
	e := &core.Engine{
		D: d, Recipe: recipe, BasePeriod: 580, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(parasitics.Stack16(), 101),
		Obs:        Obs,
	}
	res, err := e.Close()
	if err != nil {
		return errResult("fig1", err)
	}
	tb := report.NewTable("Figure 1: closure iterations",
		"iter", "setup WNS (ps)", "hold WNS (ps)", "violations", "fixes")
	for _, it := range res.Iterations {
		var fixes []string
		for _, f := range it.Fixes {
			if f.Changed > 0 {
				fixes = append(fixes, fmt.Sprintf("%s:%d", f.Pass, f.Changed))
			}
		}
		tb.Row(it.Index, it.MergedSetupWNS, it.MergedHoldWNS, it.Breakdown.Total(),
			strings.Join(fixes, " "))
	}
	txt := tb.String() + fmt.Sprintf("closed=%v, leakage cost=%.0f nW, area cost=%.1f um2\n",
		res.Closed, res.LeakageDelta, res.AreaDelta)
	first, last := res.Iterations[0], res.Iterations[len(res.Iterations)-1]
	return Result{
		ID: "fig1", Title: "Closure loop", Text: txt,
		Keys: map[string]float64{
			"iterations":  float64(len(res.Iterations)),
			"initial_wns": first.MergedSetupWNS,
			"final_wns":   last.MergedSetupWNS,
			"closed":      b2f(res.Closed),
		},
	}
}

// ---------------------------------------------------------------- E2 ----

// Fig02OldVsNew closes the same design under the old and new goal posts
// and contrasts scenario counts, analysis effort and outcome.
func Fig02OldVsNew() Result {
	stack := parasitics.Stack16()
	old := core.OldGoalPosts(liberty.Node16, stack)
	libs := core.GenerateNewLibs(liberty.Node16)
	for _, l := range []*liberty.Library{libs.SlowHot, libs.SlowCold, libs.FastCold} {
		variation.CharacterizeLVFOpts(l, 0.02, 2000, 5, mcOpts())
	}
	nw := core.NewGoalPosts(libs, stack)

	run := func(r core.Recipe, seed int64) (*core.Result, int) {
		lib := r.Scenarios[0].Lib
		d := circuits.Block(lib, circuits.BlockSpec{
			Name: "blk", Inputs: 20, Outputs: 20, FFs: 80, Gates: 1100,
			MaxDepth: 12, Seed: seed, ClockBufferLevels: 3,
			VtMix: [3]float64{0, 0.4, 0.6},
		})
		e := &core.Engine{
			D: d, Recipe: r, BasePeriod: 600, ClockPort: d.Port("clk"),
			Parasitics: sta.NewNetBinder(stack, seed),
			Obs:        Obs,
		}
		res, err := e.Close()
		if err != nil {
			return nil, 0
		}
		return res, len(r.Scenarios)
	}
	oldRes, oldScen := run(old, 202)
	newRes, newScen := run(nw, 202)
	if oldRes == nil || newRes == nil {
		return errResult("fig2", fmt.Errorf("closure failed"))
	}
	tb := report.NewTable("Figure 2: old vs new goal posts",
		"recipe", "scenarios", "derating", "SI/MIS", "PBA", "iters", "final WNS", "closed")
	tb.Row("old (65nm-era)", oldScen, "flat OCV", "off", "off",
		len(oldRes.Iterations), oldRes.Final.MergedSetupWNS, oldRes.Closed)
	tb.Row("new (16nm-era)", newScen, "LVF 3-sigma", "on", "on",
		len(newRes.Iterations), newRes.Final.MergedSetupWNS, newRes.Closed)
	txt := tb.String() +
		fmt.Sprintf("new recipe PBA-reclassified violations at signoff: %d\n",
			newRes.Final.Breakdown.PBAReclassified)
	return Result{
		ID: "fig2", Title: "Old vs new goal posts", Text: txt,
		Keys: map[string]float64{
			"old_scenarios": float64(oldScen),
			"new_scenarios": float64(newScen),
			"old_closed":    b2f(oldRes.Closed),
			"new_closed":    b2f(newRes.Closed),
		},
	}
}

// ---------------------------------------------------------------- E3 ----

// Fig03CareAbouts renders the care-abouts × node matrix.
func Fig03CareAbouts() Result {
	cas, ns, m := nodes.Matrix()
	headers := []string{"care-about (since)"}
	for _, n := range ns {
		headers = append(headers, n.Name)
	}
	tb := report.NewTable("Figure 3: evolution of timing closure care-abouts", headers...)
	for i, c := range cas {
		row := []interface{}{fmt.Sprintf("%s (%dnm)", c.Name, c.FromNm)}
		for j := range ns {
			if m[i][j] {
				row = append(row, "x")
			} else {
				row = append(row, ".")
			}
		}
		tb.Row(row...)
	}
	var burden []string
	for _, n := range ns {
		burden = append(burden, fmt.Sprintf("%s:%d", n.Name, nodes.CountActive(n)))
	}
	txt := tb.String() + "active concerns per node: " + strings.Join(burden, "  ") + "\n"
	return Result{
		ID: "fig3", Title: "Care-abouts by node", Text: txt,
		Keys: map[string]float64{
			"concerns_90nm": float64(nodes.CountActive(nodes.N90)),
			"concerns_7nm":  float64(nodes.CountActive(nodes.N7)),
		},
	}
}

// ---------------------------------------------------------------- E4 ----

// Fig04MIS reproduces the NAND2 FO3 MIS/SIS study at nominal and 80% VDD.
func Fig04MIS() Result {
	tb := report.NewTable("Figure 4: NAND2 FO3 MIS vs SIS arc delays (28nm-class, mini-SPICE)",
		"VDD", "input edge", "SIS (ps)", "MIS (ps)", "MIS/SIS", "offset (ps)")
	keys := map[string]float64{}
	for _, scale := range []float64{1.0, 0.8} {
		for _, rising := range []bool{false, true} {
			cfg := spice.MISConfig{Tech: spice.Tech28, VDDScale: scale, InputRising: rising}
			r, err := cfg.Run(spice.DefaultOffsets())
			if err != nil {
				return errResult("fig4", err)
			}
			edge := "fall"
			if rising {
				edge = "rise"
			}
			tb.Row(fmt.Sprintf("%.2fV", spice.Tech28.VDD*scale), edge, r.SIS, r.MIS, r.Ratio, r.AtOffset)
			keys[fmt.Sprintf("ratio_%s_%.0f", edge, scale*100)] = r.Ratio
		}
	}
	txt := tb.String() + "paper: falling-input MIS < ~50% of SIS; rising-input MIS > ~110% of SIS\n"
	return Result{ID: "fig4", Title: "MIS vs SIS", Text: txt, Keys: keys}
}

// ---------------------------------------------------------------- E5 ----

// Fig05SADP evaluates the four SID-SADP patterning cases.
func Fig05SADP() Result {
	s := parasitics.DefaultSADP16
	tb := report.NewTable("Figure 5: SADP (SID) line-CD sigma by patterning case",
		"case", "formula", "sigma (nm)", "R sigma (rel)", "C sigma (rel)")
	formulas := map[parasitics.PatterningKind]string{
		parasitics.MandrelMandrel: "sM",
		parasitics.SpacerSpacer:   "sqrt(sM^2+2sS^2)",
		parasitics.MandrelBlock:   "sqrt((sM/2)^2+sMB^2+(sB/2)^2)",
		parasitics.SpacerBlock:    "sqrt((sM/2)^2+sS^2+sMB^2+(sB/2)^2)",
	}
	keys := map[string]float64{}
	const nominalCD = 24.0
	for i, k := range parasitics.AllPatternings {
		sig := s.CDSigma(k)
		rRel, cRel := parasitics.RCImpact(sig, nominalCD)
		tb.Row(k.String(), formulas[k], sig, rRel, cRel)
		keys[fmt.Sprintf("sigma_case%d", i+1)] = sig
	}
	b := parasitics.BimodalCD{TargetNm: nominalCD, ShiftNm: 1.0, SigmaNm: 0.8}
	txt := tb.String() + fmt.Sprintf(
		"LELE bimodal comparison: single-mask sigma %.2f nm vs merged population %.2f nm\n",
		b.SigmaNm, b.PopulationSigma())
	return Result{ID: "fig5", Title: "SADP sigma", Text: txt, Keys: keys}
}

// --------------------------------------------------------------- E6a ----

// Fig06aMinIA shows Vt-swap-created implant violations and their repair.
func Fig06aMinIA() Result {
	lib := liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}, liberty.GenOptions{})
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "minia", Inputs: 16, Outputs: 16, FFs: 48, Gates: 800,
		Seed: 606, VtMix: [3]float64{0.25, 0.5, 0.25},
	})
	p, err := place.New(d, lib, 300, 606)
	if err != nil {
		return errResult("fig6a", err)
	}
	initial := len(p.Violations(place.DefaultMinIA))
	res := p.FixMinIA(place.DefaultFixOptions())
	tb := report.NewTable("Figure 6a: minimum implant area violations",
		"stage", "violations", "reordered", "vt changed", "displacement (um)")
	tb.Row("after placement+swap", initial, 0, 0, 0.0)
	tb.Row("after repair", res.Remaining, res.Reordered, res.VtChanged, res.TotalDisplacement)
	fixedPct := 100.0
	if res.Initial > 0 {
		fixedPct = 100 * float64(res.Initial-res.Remaining) / float64(res.Initial)
	}
	txt := tb.String() + fmt.Sprintf("repair rate %.0f%% (paper [24]: up to 100%%)\n", fixedPct)
	return Result{
		ID: "fig6a", Title: "MinIA", Text: txt,
		Keys: map[string]float64{
			"initial": float64(initial), "remaining": float64(res.Remaining),
			"fixed_pct": fixedPct,
		},
	}
}

// --------------------------------------------------------------- E6b ----

// Fig06bTempInversion sweeps gate delay versus VDD at the two temperature
// extremes and locates the crossover V_tr.
func Fig06bTempInversion() Result {
	tech := liberty.Node16
	delay := func(v, temp float64) float64 {
		pvt := liberty.PVT{Process: liberty.TT, Voltage: v, Temp: temp}
		return tech.Req(liberty.SVT, 1, pvt) * (tech.CparUnit + 4*tech.CinUnit) * 0.69
	}
	tb := report.NewTable("Figure 6b: temperature inversion (INV FO4-class delay)",
		"VDD (V)", "delay -30C (ps)", "delay 125C (ps)", "slower corner")
	vtr := 0.0
	var xs, cold, hot []float64
	for v := 0.50; v <= 1.051; v += 0.05 {
		dc, dh := delay(v, -30), delay(v, 125)
		who := "hot"
		if dc > dh {
			who = "cold"
		}
		tb.Row(v, dc, dh, who)
		xs = append(xs, v)
		cold = append(cold, dc)
		hot = append(hot, dh)
	}
	for v := 0.50; v < 1.05; v += 0.005 {
		if delay(v, -30) >= delay(v, 125) && delay(v+0.005, -30) < delay(v+0.005, 125) {
			vtr = v
			break
		}
	}
	txt := tb.String() + fmt.Sprintf("temperature-inversion crossover V_tr = %.3f V\n", vtr) +
		report.Series("cold (-30C) delay vs VDD", xs, cold, 40, 8) +
		report.Series("hot (125C) delay vs VDD", xs, hot, 40, 8)
	return Result{
		ID: "fig6b", Title: "Temperature inversion", Text: txt,
		Keys: map[string]float64{"vtr": vtr},
	}
}

// --------------------------------------------------------------- E6c ----

// Fig06cGateWire quantifies the gate-wire balance claim: 0.7→1.2V-class
// scaling cuts gate delay ~50% while wire delay barely moves, flipping
// per-path BEOL corner dominance.
func Fig06cGateWire() Result {
	tech := liberty.Node16
	stack := parasitics.Stack16()
	m3, _ := stack.LayerIndex("M3")
	wire := parasitics.PointToPoint(stack, m3, 100, 0.45)
	gate := func(v float64) float64 {
		pvt := liberty.PVT{Process: liberty.TT, Voltage: v, Temp: 85}
		return 0.69 * tech.Req(liberty.SVT, 2, pvt) * (tech.CparUnit*2 + 8)
	}
	wireD := wire.Elmore(nil)[0] // voltage-independent
	lowV, highV := 0.60, 1.00
	gLow, gHigh := gate(lowV), gate(highV)
	tb := report.NewTable("Gate vs wire delay under voltage scaling (100um M3 wire)",
		"quantity", fmt.Sprintf("%.2fV", lowV), fmt.Sprintf("%.2fV", highV), "reduction")
	tb.Row("gate delay (ps)", gLow, gHigh, report.Pct(1-gHigh/gLow))
	tb.Row("wire delay (ps)", wireD, wireD, report.Pct(0))
	gateRed := 1 - gHigh/gLow
	txt := tb.String() + fmt.Sprintf(
		"paper: ~50%% gate reduction vs ~2%% wire; measured gate reduction %.0f%%.\n"+
			"consequence: low-V paths are gate/C-worst dominated, high-V paths wire/RC-worst dominated.\n",
		100*gateRed)
	return Result{
		ID: "fig6c", Title: "Gate-wire balance", Text: txt,
		Keys: map[string]float64{"gate_reduction": gateRed, "wire_reduction": 0},
	}
}

// ---------------------------------------------------------------- E7 ----

// Fig07MCAsymmetry runs the Monte Carlo path-delay study.
func Fig07MCAsymmetry() Result {
	p := variation.Default16(10)
	p.Workers = Workers
	st := variation.Summarize(p.Run(10000))
	tb := report.NewTable("Figure 7: Monte Carlo path delay distribution (10-stage, 0.65V)",
		"statistic", "value")
	tb.Row("mean (ps)", st.Mean)
	tb.Row("sigma (ps)", st.Sigma)
	tb.Row("sigma early (ps)", st.SigmaEarly)
	tb.Row("sigma late (ps)", st.SigmaLate)
	tb.Row("late/early sigma ratio", st.SigmaLate/st.SigmaEarly)
	tb.Row("skewness", st.Skewness)
	tb.Row("q0.1% - mean (ps)", st.Q0001-st.Mean)
	tb.Row("q99.9% - mean (ps)", st.Q9999-st.Mean)
	txt := tb.String() +
		"paper Figure 7: setup long tail -> separate late/early sigma in LVF.\n"
	return Result{
		ID: "fig7", Title: "MC asymmetry", Text: txt,
		Keys: map[string]float64{
			"skewness": st.Skewness, "sigma_ratio": st.SigmaLate / st.SigmaEarly,
		},
	}
}

// ---------------------------------------------------------------- E8 ----

// Fig08TBC evaluates pessimism metric alpha and TBC signoff.
func Fig08TBC() Result {
	an := beolcorner.Analysis{Stack: parasitics.Stack16(), NSigma: 3, Samples: 2000, Seed: 8}
	paths := beolcorner.GeneratePaths(an.Stack, 100, 88)
	stats := an.Evaluate(paths)
	// Scatter flavor: alpha vs relative delta at both corners.
	var aCw, dCw, aRCw, dRCw []float64
	cwDom, rcwDom, alphaBelow1 := 0, 0, 0
	for _, s := range stats {
		aCw = append(aCw, s.AlphaCw)
		dCw = append(dCw, s.DeltaRelCw())
		aRCw = append(aRCw, s.AlphaRCw)
		dRCw = append(dRCw, s.DeltaRelRCw())
		if s.DeltaCw > s.DeltaRCw {
			cwDom++
		} else {
			rcwDom++
		}
		if s.AlphaCw < 1 || s.AlphaRCw < 1 {
			alphaBelow1++
		}
	}
	safe := beolcorner.ClassifyTBC(stats, 0.07, 0.07)
	tighten := beolcorner.CalibrateTighten(stats, safe)
	// Requirements with endgame-style slack spread: most paths barely pass
	// or barely fail at the conventional corner (the situation late in a
	// tapeout march). Corner pessimism pushes marginal paths into the
	// violation report; tightening rescues exactly those.
	req := make([]float64, len(paths))
	for i, s := range stats {
		u := float64((i*2654435761)%1000) / 1000 // deterministic spread
		slack := s.Nominal * 0                   // keep units obvious
		slack = (-0.35 + 0.50*u) * maxf(s.DeltaCw, s.DeltaRCw)
		req[i] = s.Nominal + maxf(s.DeltaCw, s.DeltaRCw) + slack
	}
	out := beolcorner.Signoff(an, paths, stats, safe, req, tighten)
	nSafe := 0
	for _, ok := range safe {
		if ok {
			nSafe++
		}
	}
	tb := report.NewTable("Figure 8: conventional vs tightened BEOL corners",
		"quantity", "value")
	tb.Row("paths", len(paths))
	tb.Row("Cw-dominated / RCw-dominated", fmt.Sprintf("%d / %d", cwDom, rcwDom))
	tb.Row("paths with alpha < 1 at some corner", alphaBelow1)
	tb.Row("TBC-safe paths (thresholds 7%/7%)", nSafe)
	tb.Row("calibrated tightening factor", tighten)
	tb.Row("violations @ CBC", out.CBCViolations)
	tb.Row("violations @ TBC", out.TBCViolations)
	tb.Row("true (statistical 3-sigma) violations", out.TrueViolations)
	tb.Row("material escapes", out.Escapes)
	txt := tb.String() +
		report.Series("alpha vs rel-delta at Cw", dCw, aCw, 44, 9) +
		report.Series("alpha vs rel-delta at RCw", dRCw, aRCw, 44, 9) +
		"paper [2]: TBC signoff substantially reduces violations and fix effort.\n"
	reduction := 0.0
	if out.CBCViolations > 0 {
		reduction = float64(out.CBCViolations-out.TBCViolations) / float64(out.CBCViolations)
	}
	return Result{
		ID: "fig8", Title: "TBC", Text: txt,
		Keys: map[string]float64{
			"cbc_violations": float64(out.CBCViolations),
			"tbc_violations": float64(out.TBCViolations),
			"reduction":      reduction,
			"escapes":        float64(out.Escapes),
		},
	}
}

// ---------------------------------------------------------------- E9 ----

// Fig09AgingAVS sweeps the seven aging signoff corners for the four
// circuits and reports the power/area trade-off.
func Fig09AgingAVS() Result {
	cfg := aging.DefaultLifetime()
	corners := aging.DefaultCorners()
	tb := report.NewTable("Figure 9: lifetime power vs area across aging signoff corners (AVS, 10y)",
		"circuit", "corner", "assumed dVt (mV)", "area %", "power %", "EOL VDD", "met")
	keys := map[string]float64{}
	for _, c := range aging.AllModels() {
		outs := aging.SweepCorners(cfg, c, c.Tech.VDDNominal, corners)
		for _, o := range outs {
			tb.Row(c.Name, o.Corner.Index, o.Corner.AssumedDvt*1000,
				o.AreaPct, o.PowerPct, o.Result.FinalV, o.Result.Met)
		}
		keys["power_corner1_"+c.Name] = outs[0].PowerPct
		keys["area_corner7_"+c.Name] = outs[len(outs)-1].AreaPct
	}
	txt := tb.String() +
		"paper [1]: underestimating aging raises lifetime power (AVS overdrives);\n" +
		"overestimating raises area (oversized at signoff).\n"
	return Result{ID: "fig9", Title: "Aging/AVS corners", Text: txt, Keys: keys}
}

// --------------------------------------------------------------- E10 ----

// Fig10FFInterdep characterizes the 65nm DFF at transistor level and runs
// the margin-recovery optimization.
func Fig10FFInterdep() Result {
	cfg := ffchar.Default65()
	cfg.Step = 0.75
	cfg.Workers = Workers
	ref, err := cfg.ReferenceC2Q()
	if err != nil {
		return errResult("fig10", err)
	}
	setups := []float64{160, 120, 80, 60, 40, 30, 20, 12, 8, 4, 0}
	c2qS, err := cfg.C2QvsSetup(setups)
	if err != nil {
		return errResult("fig10", err)
	}
	holds := []float64{160, 120, 80, 60, 40, 30, 20, 12}
	c2qH, err := cfg.C2QvsHold(holds)
	if err != nil {
		return errResult("fig10", err)
	}
	contour, err := cfg.SetupVsHold([]float64{120, 60, 30, 15})
	if err != nil {
		return errResult("fig10", err)
	}
	tb := report.NewTable("Figure 10 (left): c2q vs setup time", "setup (ps)", "c2q (ps)")
	var sx, sy []float64
	for _, p := range c2qS {
		tb.Row(p.Setup, p.C2Q)
		sx = append(sx, p.Setup)
		sy = append(sy, p.C2Q)
	}
	tb2 := report.NewTable("Figure 10 (middle): c2q vs hold time", "hold (ps)", "c2q (ps)")
	for _, p := range c2qH {
		tb2.Row(p.Hold, p.C2Q)
	}
	tb3 := report.NewTable("Figure 10 (right): setup vs hold contour", "hold (ps)", "min setup (ps)", "c2q (ps)")
	for _, p := range contour {
		tb3.Row(p.Hold, p.Setup, p.C2Q)
	}
	// Margin recovery on the characterized curve.
	conv := ffchar.Point{Setup: 0, Hold: 0, C2Q: ref * 1.1}
	if su, err := cfg.SetupTime(); err == nil {
		conv.Setup = su
	}
	curve := make([]ffchar.Point, len(c2qS))
	copy(curve, c2qS)
	bs := []ffchar.Boundary{
		{Name: "ff_critIn1", SlackIn: -60, SlackOut: 120},
		{Name: "ff_critIn2", SlackIn: -12, SlackOut: 80},
		{Name: "ff_critIn3", SlackIn: -4, SlackOut: 30},
		{Name: "ff_balanced", SlackIn: 20, SlackOut: 25},
		{Name: "ff_critOut1", SlackIn: 140, SlackOut: -25},
		{Name: "ff_critOut2", SlackIn: 60, SlackOut: -10},
		{Name: "ff_critOut3", SlackIn: 35, SlackOut: -3},
		{Name: "ff_easy", SlackIn: 150, SlackOut: 180},
	}
	rec := ffchar.Recover(curve, conv, bs)
	txt := tb.String() + tb2.String() + tb3.String() +
		report.Series("c2q vs setup (pushout wall at left)", sx, sy, 44, 9) +
		fmt.Sprintf("margin recovery across %d boundaries: WNS %.1f -> %.1f ps (gain %.1f, total %.1f)\n",
			len(bs), rec.WNSBefore, rec.WNSAfter, rec.WNSAfter-rec.WNSBefore, rec.TotalGain) +
		"paper [23]: flexible flip-flop timing recovers up to ~130 ps-class worst slack in 65nm.\n"
	return Result{
		ID: "fig10", Title: "FF interdependency", Text: txt,
		Keys: map[string]float64{
			"ref_c2q":      ref,
			"recovery_wns": rec.WNSAfter - rec.WNSBefore,
			"total_gain":   rec.TotalGain,
		},
	}
}

// --------------------------------------------------------------- E11 ----

// Fig11PBAvsGBA measures PBA pessimism reduction and runtime overhead.
func Fig11PBAvsGBA() Result {
	lib := liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.SSG, Voltage: 0.72, Temp: 125}, liberty.GenOptions{})
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "pba", Inputs: 20, Outputs: 20, FFs: 96, Gates: 1600,
		MaxDepth: 14, Seed: 111, ClockBufferLevels: 3,
	})
	cons := sta.NewConstraints()
	cons.AddClock("clk", 480, d.Port("clk"))
	a, err := sta.New(d, cons, sta.Config{
		Lib: lib, Parasitics: sta.NewNetBinder(parasitics.Stack16(), 11),
		Derate: sta.DefaultAOCV(),
	})
	if err != nil {
		return errResult("fig11", err)
	}
	gbaOps := timeIt(func() {
		if err := a.Run(); err != nil {
			panic(err)
		}
	})
	paths := a.WorstPaths(sta.Setup, 200)
	var totalPess float64
	reclassified, violating := 0, 0
	var pbaOps float64
	pbaOps = timeIt(func() {
		for _, p := range paths {
			r := a.PBA(p)
			totalPess += r.Pessimism
			if p.GBASlack < 0 {
				violating++
				if r.Slack >= 0 {
					reclassified++
				}
			}
		}
	})
	tb := report.NewTable("PBA vs GBA (Section 1.3)", "quantity", "value")
	tb.Row("endpoints examined", len(paths))
	tb.Row("GBA-violating endpoints", violating)
	tb.Row("reclassified clean by PBA", reclassified)
	tb.Row("mean pessimism removed (ps)", totalPess/float64(maxi(1, len(paths))))
	tb.Row("GBA full-update time (ms)", gbaOps*1000)
	tb.Row(fmt.Sprintf("PBA %d-path time (ms)", len(paths)), pbaOps*1000)
	tb.Row("PBA/GBA runtime ratio", pbaOps/gbaOps)
	txt := tb.String() +
		"paper: pba reduces pessimism at the cost of STA turnaround time.\n"
	return Result{
		ID: "fig11", Title: "PBA vs GBA", Text: txt,
		Keys: map[string]float64{
			"mean_pessimism": totalPess / float64(maxi(1, len(paths))),
			"reclassified":   float64(reclassified),
			"runtime_ratio":  pbaOps / gbaOps,
		},
	}
}

// --------------------------------------------------------------- E12 ----

// fig12Space is the signoff space of a wide-voltage-range 16nm-class SOC.
func fig12Space() mcmm.Space {
	volts := []float64{0.50, 0.60, 0.72, 0.80, 0.90, 1.00}
	temps := []float64{-30, 25, 125}
	return mcmm.Space{
		Modes:           mcmm.DefaultModes(),
		PVTs:            mcmm.VoltageTempGrid(volts, temps),
		BEOLs:           append([]parasitics.CornerKind{parasitics.Typical}, parasitics.AllCorners...),
		MaskShiftCombos: parasitics.Stack16().MaskShiftCombos(),
	}
}

// Fig12CornerExplosion enumerates the scenario space and prunes it with
// the dominance rule.
func Fig12CornerExplosion() Result {
	sp := fig12Space()
	full := sp.Count()
	tb := report.NewTable("Corner super-explosion (Section 2.3)", "stage", "count")
	tb.Row("modes", len(sp.Modes))
	tb.Row("PVT corners (V x T x proc)", len(sp.PVTs))
	tb.Row("BEOL corners", len(sp.BEOLs))
	tb.Row("multi-patterning shift combos", sp.MaskShiftCombos)
	tb.Row("full cross product", full)
	p := sp.Prune()
	kept := 0
	for i := range p.Scenarios {
		if p.Kept(i) {
			kept++
		}
	}
	pruned := full - kept
	tb.Row("after dominance pruning", kept)
	txt := tb.String() + fmt.Sprintf("pruned %d of %d scenarios (%.0f%%)\n",
		pruned, full, 100*float64(pruned)/float64(full))
	return Result{
		ID: "fig12", Title: "Corner explosion", Text: txt,
		Keys: map[string]float64{
			"full":   float64(full),
			"pruned": float64(pruned),
			"kept":   float64(kept),
		},
	}
}

// --------------------------------------------------------------- E13 ----

// Fig13AVSTypical contrasts worst-case fixed-voltage signoff with
// monitor-driven AVS across a die population.
func Fig13AVSTypical() Result {
	c := aging.C5315Model().SizeFor(liberty.Node16.VDDNominal, 0.03)
	ctl := avs.Controller{
		Monitor: avs.DDROFor(c), MarginFrac: 0.04,
		VMin: 0.55, VMax: 1.05, VStep: 0.0125,
	}
	ctl.Calibrate(c, 105)
	dies := []liberty.ProcessCorner{liberty.SS, liberty.SSG, liberty.TT, liberty.FFG, liberty.FF}
	cmp := avs.Compare(ctl, c, dies, 105)
	tb := report.NewTable("AVS vs worst-case signoff (Section 3.3)",
		"die", "fixed V", "fixed power", "AVS V", "AVS power", "both met")
	for i, die := range dies {
		tb.Row(die.Name, cmp.Fixed[i].V, cmp.Fixed[i].Power, cmp.AVS[i].V, cmp.AVS[i].Power,
			cmp.Fixed[i].Met && cmp.AVS[i].Met)
	}
	txt := tb.String() + fmt.Sprintf(
		"mean power saving with AVS: %s; DC margin removed on typical die: %s\n",
		report.Pct(cmp.MeanPowerSaving), report.Ps(cmp.DCMarginPs)) +
		"paper: AVS 'enables setup timing to be closed at typical corners' and\n" +
		"removes a DC component of timing margin (footnote 6).\n"
	return Result{
		ID: "fig13", Title: "AVS typical signoff", Text: txt,
		Keys: map[string]float64{
			"power_saving": cmp.MeanPowerSaving,
			"dc_margin":    cmp.DCMarginPs,
		},
	}
}

// ------------------------------------------------------------ helpers ----

func errResult(id string, err error) Result {
	return Result{ID: id, Title: "error", Text: fmt.Sprintf("experiment %s failed: %v\n", id, err)}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// timeIt measures one invocation's wall time in seconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}
