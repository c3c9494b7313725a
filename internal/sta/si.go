package sta

import (
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/units"
)

// NoiseViolation is a crosstalk glitch exceeding the failure threshold on a
// quiet victim net.
type NoiseViolation struct {
	Net *netlist.Net
	// Bump is the estimated glitch height, V.
	Bump units.Volt
	// Threshold is the failure level, V.
	Threshold units.Volt
	// CouplingFrac is Cc / Ctotal for the net.
	CouplingFrac float64
}

// NoiseViolations estimates glitch bumps on every net using an aggregate
// virtual-aggressor model: the victim's coupling capacitance is driven by
// an aggressor with the design's typical slew while the victim driver holds
// with its equivalent resistance. Bump ≈ VDD·(Cc/Ct)/(1 + T_agg/(2·R·Ct)).
//
// Noise closure is part of the paper's "last set of several hundred manual
// noise and DRC fixes"; the optimization package fixes these via driver
// upsizing and coupling reduction (NDR).
func (a *Analyzer) NoiseViolations() []NoiseViolation {
	var out []NoiseViolation
	if !a.ran {
		return out
	}
	vdd := a.Cfg.Lib.PVT.Voltage
	thresh := a.Cfg.SI.NoiseThreshold
	if thresh <= 0 {
		thresh = 0.35
	}
	aggSlew := a.referenceAggressorSlew()
	for _, n := range a.D.Nets {
		nd := a.netDataOf(n)
		if nd == nil || n.Driver == nil || nd.srcTree == nil {
			continue
		}
		// The coupling of the tree the net was timed with.
		cc, ct := nd.srcTree.TotalCoupling(a.Cfg.Scaling), nd.totalCap[late]
		if cc <= 0 || ct <= 0 {
			continue
		}
		drv := a.master(n.Driver.Cell)
		r := a.Cfg.Lib.Tech.Req(drv.Vt, drv.Drive, a.Cfg.Lib.PVT)
		tau := r * ct
		bump := vdd * (cc / ct) / (1 + aggSlew/(2*tau))
		if bump > thresh*vdd {
			out = append(out, NoiseViolation{
				Net: n, Bump: bump, Threshold: thresh * vdd,
				CouplingFrac: cc / ct,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bump > out[j].Bump })
	return out
}

// referenceAggressorSlew returns the virtual aggressor transition time: the
// output slew of a healthy mid-strength inverter at a fanout-of-8 load.
// Using a library reference (rather than the victim design's own slews)
// keeps the aggressor model independent of the victim's sizing problems.
func (a *Analyzer) referenceAggressorSlew() units.Ps {
	lib := a.Cfg.Lib
	inv := lib.Cell(liberty.CellName("INV", 2, liberty.SVT))
	if inv == nil {
		return 20
	}
	arc := inv.Arc("A", "Z")
	if arc == nil {
		return 20
	}
	load := 8 * lib.Tech.CinUnit
	return arc.Slew(true, 4*lib.Tech.Req(liberty.SVT, 1, lib.PVT)*lib.Tech.CinUnit, load)
}
