package opt

import (
	"sort"
	"strings"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// BufferOptions tunes DRC and high-fanout buffering.
type BufferOptions struct {
	// BufMaster is the inserted buffer (default BUF_X4_SVT).
	BufMaster string
	// MaxFixes bounds insertions per invocation.
	MaxFixes int
}

// DefaultBuffer is the standard recipe.
func DefaultBuffer() BufferOptions {
	return BufferOptions{BufMaster: liberty.CellName("BUF", 4, liberty.SVT), MaxFixes: 120}
}

// FixDRC repairs max-capacitance and max-transition violations by splitting
// overloaded nets behind buffers — the bread-and-butter of the paper's
// "last set of several hundred manual noise and DRC fixes", automated.
func FixDRC(ctx *Context, opts BufferOptions) (Report, error) {
	rep := Report{Pass: "drc_fix"}
	rep.WNSBefore = float64(len(ctx.A.DRCViolations())) // count, not ps, for this pass
	buf := ctx.Lib.Cell(opts.BufMaster)
	for iter := 0; iter < 8; iter++ {
		viols := ctx.A.DRCViolations()
		if len(viols) == 0 || rep.Changed >= opts.MaxFixes {
			break
		}
		fixed := 0
		seenNet := map[*netlist.Net]bool{}
		for _, v := range viols {
			if rep.Changed >= opts.MaxFixes {
				break
			}
			// max_cap at a driver or max_tran at an input pin: either way the
			// net to fix is the pin's.
			net := v.Pin.Net
			if net == nil || seenNet[net] {
				continue
			}
			seenNet[net] = true
			// First choice: a stronger driver (faster edge, no structural
			// change).
			if drv := net.Driver; drv != nil {
				m := ctx.Lib.Cell(drv.Cell.TypeName)
				upsized := false
				for _, dr := range ctx.Lib.Drives(m.Function) {
					if dr > m.Drive {
						if variant := ctx.Lib.Variant(m, dr, m.Vt); variant != nil {
							rep.AreaDelta += variant.Area - m.Area
							rep.LeakageDelta += variant.Leakage - m.Leakage
							drv.Cell.SetType(variant.Name)
							rep.Changed++
							fixed++
							upsized = true
						}
						break
					}
				}
				if upsized {
					continue
				}
			}
			// Driver maxed (or a port): split the load behind a buffer.
			if len(net.Loads) >= 2 {
				half := len(net.Loads) / 2
				moved := append([]*netlist.Pin(nil), net.Loads[half:]...)
				if _, err := ctx.A.D.InsertBuffer(net, moved, buf.Name); err != nil {
					return rep, err
				}
				rep.AreaDelta += buf.Area
				rep.LeakageDelta += buf.Leakage
				rep.Changed++
				fixed++
				continue
			}
			// Last resort: improve the wire itself (repeater-class NDR).
			if trees := ctx.A.Cfg.Parasitics; trees != nil && !trees.HasNDR(net) {
				trees.SetNDR(net, WideSpaced)
				rep.Changed++
				fixed++
			}
		}
		if fixed == 0 {
			break
		}
		// Upsized drivers (retyped without an InvalidateCell), split nets
		// and wire rules: a full Run re-times them all, patching the
		// journaled buffers into the graph, and leaves ctx.A current.
		if err := ctx.A.Run(); err != nil {
			return rep, err
		}
	}
	rep.WNSAfter = float64(len(ctx.A.DRCViolations()))
	return rep, nil
}

// FixNoise repairs crosstalk glitch violations by upsizing victim drivers
// (stronger holding resistance) and, when the analyzer has a parasitics
// table, assigning the wide/spaced NDR to the victim net (less coupling).
func FixNoise(ctx *Context, maxFixes int) (Report, error) {
	rep := Report{Pass: "noise_fix"}
	rep.WNSBefore = float64(len(ctx.A.NoiseViolations()))
	for iter := 0; iter < 6; iter++ {
		viols := ctx.A.NoiseViolations()
		if len(viols) == 0 || rep.Changed >= maxFixes {
			break
		}
		acted := 0
		for _, v := range viols {
			if rep.Changed >= maxFixes {
				break
			}
			did := false
			if trees := ctx.A.Cfg.Parasitics; trees != nil {
				if r, ok := trees.NDROf(v.Net); !ok {
					trees.SetNDR(v.Net, WideSpaced)
					did = true
				} else if r.Name == WideSpaced.Name {
					// Spacing was not enough: shield the victim.
					trees.SetNDR(v.Net, Shielded)
					did = true
				}
			}
			if drv := v.Net.Driver; drv != nil {
				m := ctx.Lib.Cell(drv.Cell.TypeName)
				drives := ctx.Lib.Drives(m.Function)
				for _, d := range drives {
					if d > m.Drive {
						if variant := ctx.Lib.Variant(m, d, m.Vt); variant != nil {
							rep.AreaDelta += variant.Area - m.Area
							rep.LeakageDelta += variant.Leakage - m.Leakage
							drv.Cell.SetType(variant.Name)
							did = true
						}
						break
					}
				}
			}
			if did {
				rep.Changed++
				acted++
			}
		}
		if acted == 0 {
			break
		}
		if err := ctx.A.Run(); err != nil {
			return rep, err
		}
	}
	rep.WNSAfter = float64(len(ctx.A.NoiseViolations()))
	return rep, nil
}

// ApplyNDR assigns the wide/spaced rule to the largest wire-delay nets on
// violating setup paths — Figure 1's fourth lever.
func ApplyNDR(ctx *Context, maxNets int) (Report, error) {
	rep := Report{Pass: "ndr"}
	trees := ctx.A.Cfg.Parasitics
	if trees == nil {
		return rep, nil
	}
	rep.WNSBefore = ctx.A.WorstSlack(sta.Setup)
	rep.TNSBefore = ctx.A.TNS(sta.Setup)
	type wn struct {
		net   *netlist.Net
		delay units.Ps
	}
	var cands []wn
	seen := map[*netlist.Net]bool{}
	for _, p := range ctx.A.WorstPaths(sta.Setup, min(30, ctx.A.Summary(sta.Setup).Violations)) {
		if p.GBASlack >= 0 {
			break
		}
		for _, st := range p.Steps {
			if st.IsCell || st.Net == nil || seen[st.Net] || trees.HasNDR(st.Net) {
				continue
			}
			seen[st.Net] = true
			cands = append(cands, wn{st.Net, st.Delay})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].delay > cands[j].delay })
	for _, c := range cands {
		if rep.Changed >= maxNets {
			break
		}
		if c.delay < 1 { // not worth a routing rule
			continue
		}
		trees.SetNDR(c.net, WideSpaced)
		rep.Changed++
	}
	if err := ctx.A.Run(); err != nil {
		return rep, err
	}
	rep.WNSAfter = ctx.A.WorstSlack(sta.Setup)
	rep.TNSAfter = ctx.A.TNS(sta.Setup)
	return rep, nil
}

// FixHold pads hold-violating endpoints with delay buffers on the D input,
// guarded by the endpoint's setup headroom.
func FixHold(ctx *Context, maxFixes int) (Report, error) {
	rep := Report{Pass: "hold_fix"}
	rep.WNSBefore = ctx.A.WorstSlack(sta.Hold)
	rep.TNSBefore = ctx.A.TNS(sta.Hold)
	delayBuf := liberty.CellName("BUF", 1, liberty.HVT)
	bm := ctx.Lib.Cell(delayBuf)
	// Cross-corner guard: padding consumes setup slack at the slow corner,
	// where the pad cell is far slower than at this (fast) hold corner.
	guard := ctx.SetupGuard
	var guardBuf float64
	if guard != nil {
		gb := guard.Cfg.Lib.Cell(delayBuf)
		guardBuf = gb.Arc("A", "Z").Delay(true, 20, 2*guard.Cfg.Lib.Tech.CinUnit)
	}
	for iter := 0; iter < 6; iter++ {
		viols := ctx.A.EndpointSlacks(sta.Hold)
		acted := 0
		seen := map[*netlist.Pin]bool{}
		for _, e := range viols {
			if e.Slack >= 0 {
				break
			}
			if e.Pin == nil || seen[e.Pin] || rep.Changed >= maxFixes {
				continue
			}
			seen[e.Pin] = true
			if e.Pin.Net == nil {
				continue
			}
			arc := bm.Arc("A", "Z")
			perBuf := arc.Delay(true, 20, ctx.Lib.Cell(e.Pin.Cell.TypeName).InputCap(e.Pin.Name))
			need := int(-e.Slack/perBuf) + 1
			if need > 12 {
				need = 12
			}
			// Pick the pad location: the endpoint's D pin, or — when the
			// endpoint also carries a setup-critical (deep) path — a pin
			// further up the *early* (short) branch with setup headroom at
			// both corners. Padding any pin on the early path delays the
			// racing data 1:1 while leaving the deep path untouched.
			holdPath := ctx.A.WorstPath(e)
			var best *netlist.Pin
			bestFit := 0
			for k := len(holdPath.Steps) - 1; k >= 1; k-- {
				st := holdPath.Steps[k]
				if st.IsCell || st.Cell == nil || st.Net == nil {
					continue
				}
				// A step is named "cell/pin".
				pin := st.Cell.Pin(st.Name[strings.LastIndexByte(st.Name, '/')+1:])
				if pin == nil || pin.Net != st.Net {
					continue
				}
				fit := int((ctx.A.PinSetupSlack(pin) - 5) / perBuf)
				if guard != nil && guardBuf > 0 {
					if g := int((guard.PinSetupSlack(pin) - 5) / guardBuf); g < fit {
						fit = g
					}
				}
				if fit > bestFit {
					best, bestFit = pin, fit
				}
				if bestFit >= need {
					break
				}
			}
			if best == nil || bestFit <= 0 {
				continue
			}
			if bestFit < need {
				need = bestFit
			}
			target := best
			for b := 0; b < need; b++ {
				nb, err := ctx.A.D.InsertBuffer(target.Net, []*netlist.Pin{target}, delayBuf)
				if err != nil {
					return rep, err
				}
				rep.AreaDelta += bm.Area
				rep.LeakageDelta += bm.Leakage
				target = nb.Pin("A")
			}
			rep.Changed++
			acted++
		}
		if acted == 0 {
			break
		}
		// The pads are journaled buffer edits: each Update patches its graph
		// and re-times the pads' cones, the guard adopting the topology
		// ctx.A has just patched.
		if err := ctx.A.Update(); err != nil {
			return rep, err
		}
		if guard != nil {
			guard.Cfg.Topology = ctx.A.Topology()
			if err := guard.Update(); err != nil {
				return rep, err
			}
		}
	}
	rep.WNSAfter = ctx.A.WorstSlack(sta.Hold)
	rep.TNSAfter = ctx.A.TNS(sta.Hold)
	return rep, nil
}
