package cts

import (
	"math"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// UsefulSkewOptions tunes the scheduler.
type UsefulSkewOptions struct {
	// MaxSkew bounds the per-FF intentional delay (implementable with a
	// small buffer string), ps.
	MaxSkew units.Ps
	// HoldMargin is the hold slack that must remain after delaying a
	// capture clock, ps.
	HoldMargin units.Ps
	// Iterations of the balance relaxation.
	Iterations int
	// Step damping (0..1).
	Step float64
}

// DefaultUsefulSkew is a conservative recipe.
func DefaultUsefulSkew() UsefulSkewOptions {
	return UsefulSkewOptions{MaxSkew: 60, HoldMargin: 10, Iterations: 6, Step: 0.6}
}

// UsefulSkewResult reports the scheduling outcome.
type UsefulSkewResult struct {
	// Offsets is the per-FF intentional clock delay written into the
	// constraints (≥ 0; the minimum is normalized to zero).
	Offsets map[*netlist.Cell]units.Ps
	// WNSBefore/WNSAfter are setup worst slacks.
	WNSBefore, WNSAfter units.Ps
	// HoldWNSBefore/HoldWNSAfter confirm hold safety: scheduling must not
	// degrade the design's hold WNS (pre-existing violations, e.g. at
	// unconstrained inputs, are the hold-fixing step's job, not ours).
	HoldWNSBefore, HoldWNSAfter units.Ps
	// Adjusted counts FFs with non-zero offsets.
	Adjusted int
}

// ScheduleUsefulSkew computes per-flip-flop intentional clock delays that
// balance setup slack across register stages (the "useful skew" step of the
// paper's Figure 1 fix ordering, and the skew-scheduling literature the
// paper cites as [6]/[10]): a flip-flop whose input (capture) paths are
// tighter than its output (launch) paths gets its clock delayed, borrowing
// time from the downstream stage. Offsets are written into the analyzer's
// constraints (ExtraCKLatency) and the design is re-timed.
//
// Only positive delays are implementable (a buffer can be inserted, not
// removed), so the schedule is normalized to a zero minimum.
func ScheduleUsefulSkew(a *sta.Analyzer, lib *liberty.Library, opts UsefulSkewOptions) (UsefulSkewResult, error) {
	res := UsefulSkewResult{Offsets: map[*netlist.Cell]units.Ps{}}
	if err := a.Run(); err != nil {
		return res, err
	}
	res.WNSBefore = a.WorstSlack(sta.Setup)
	res.HoldWNSBefore = a.WorstSlack(sta.Hold)
	ffs := ffsOf(a, lib)
	offset := map[*netlist.Cell]float64{}
	for it := 0; it < opts.Iterations; it++ {
		// Per-FF capture-side and launch-side slacks from the current
		// timing state.
		for _, ff := range ffs {
			m := lib.Cell(ff.TypeName)
			dSlack := a.PinSetupSlack(ff.Pin(m.FF.Data))
			qSlack := a.PinSetupSlack(ff.Pin(m.FF.Q))
			if math.IsInf(dSlack, 0) || math.IsInf(qSlack, 0) {
				continue
			}
			// Move half the imbalance, damped.
			delta := opts.Step * (qSlack - dSlack) / 2
			offset[ff] = units.Clamp(offset[ff]+delta, 0, opts.MaxSkew)
		}
		// Normalize: only delays ≥ 0 are implementable.
		minOff := math.Inf(1)
		for _, ff := range ffs {
			if offset[ff] < minOff {
				minOff = offset[ff]
			}
		}
		if !math.IsInf(minOff, 0) && minOff > 0 {
			for _, ff := range ffs {
				offset[ff] -= minOff
			}
		}
		for ff, o := range offset {
			a.Cons.ExtraCKLatency[ff] = o
		}
		if err := a.Run(); err != nil {
			return res, err
		}
		// Hold safety: back off FFs whose hold slack dipped.
		backed := false
		for _, e := range a.EndpointSlacks(sta.Hold) {
			if e.Slack >= opts.HoldMargin || e.Pin == nil {
				continue
			}
			ff := e.Pin.Cell
			if offset[ff] > 0 {
				offset[ff] = units.Clamp(offset[ff]-(opts.HoldMargin-e.Slack), 0, opts.MaxSkew)
				a.Cons.ExtraCKLatency[ff] = offset[ff]
				backed = true
			}
		}
		if backed {
			if err := a.Run(); err != nil {
				return res, err
			}
		}
	}
	res.WNSAfter = a.WorstSlack(sta.Setup)
	res.HoldWNSAfter = a.WorstSlack(sta.Hold)
	for ff, o := range offset {
		if o > 0 {
			res.Offsets[ff] = o
			res.Adjusted++
		}
	}
	return res, nil
}

// JitterModel decomposes clock jitter margin per paper §3.4: the flat
// margin lumps PLL long-term jitter, supply-induced jitter and a foundry
// pad into one number applied to every setup check; a cycle-to-cycle model
// recognizes that launch and capture edges one cycle apart share the
// low-frequency jitter component, so only the high-frequency part (RMS-
// combined across the two edges) matters for setup.
type JitterModel struct {
	// PLLRms is the PLL period jitter, 1σ ps.
	PLLRms units.Ps
	// LowFreqFrac is the fraction of jitter power below the loop bandwidth
	// (shared by adjacent edges).
	LowFreqFrac float64
	// SupplyPs is the supply-noise-induced jitter allowance, ps.
	SupplyPs units.Ps
	// FoundryPadPs is the fixed pad the foundry dictates, ps.
	FoundryPadPs units.Ps
	// NSigma for margining (3 customary).
	NSigma float64
}

// DefaultJitter is a representative GHz-class budget.
func DefaultJitter() JitterModel {
	return JitterModel{PLLRms: 2.5, LowFreqFrac: 0.6, SupplyPs: 4, FoundryPadPs: 5, NSigma: 3}
}

// FlatMargin is the traditional single-number setup uncertainty: the full
// two-edge PLL jitter (no low-frequency credit), full supply noise and the
// foundry pad stacked linearly ("swept under a single jitter margin rug",
// paper footnote 5).
func (j JitterModel) FlatMargin() units.Ps {
	return j.NSigma*j.PLLRms*math.Sqrt2 + j.SupplyPs + j.FoundryPadPs
}

// C2CMargin is the cycle-to-cycle margin: the shared low-frequency jitter
// cancels between launch and capture; the independent high-frequency parts
// of the two edges RSS, and supply noise is correlated across one cycle so
// only half is charged.
func (j JitterModel) C2CMargin() units.Ps {
	hf := j.PLLRms * math.Sqrt(1-j.LowFreqFrac)
	edge := j.NSigma * hf * math.Sqrt2
	return edge + 0.5*j.SupplyPs + j.FoundryPadPs
}

// Recovered returns the margin recovered by the cycle-to-cycle model.
func (j JitterModel) Recovered() units.Ps { return j.FlatMargin() - j.C2CMargin() }
