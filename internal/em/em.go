// Package em implements signal-net electromigration checking — on the
// paper's care-about timeline (Figure 3) since the 90nm node, and flagged
// as a growing FinFET worry in §4 Comment 2 ("FinFET current densities
// bring self-heating and reliability concerns"). A net's RMS switching
// current is compared against the current capacity of its route (layer
// J-limit × wire width), with a temperature derate for self-heating.
package em

import (
	"math"
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// Config sets the current model and limits.
type Config struct {
	// FreqGHz and Activity convert switched charge to average current.
	FreqGHz  float64
	Activity float64
	// CrestFactor converts average to RMS current for EM purposes.
	CrestFactor float64
	// TempDeratePerC reduces current capacity per °C above the reference
	// 105 °C (Black's-equation flavored linearization; FinFET self-heating
	// adds an effective temperature offset).
	TempDeratePerC float64
	// SelfHeatC is the effective device self-heating temperature adder, °C
	// (≈0 planar, 10–20 FinFET).
	SelfHeatC units.Celsius
	// WidthFactor maps a route's rule to a width multiple of the layer
	// minimum (non-default rules are wider).
	WidthFactor func(*netlist.Net) float64
}

// DefaultConfig is a GHz-class, FinFET-aware recipe.
func DefaultConfig() Config {
	return Config{
		FreqGHz: 1.0, Activity: 0.15, CrestFactor: 2.2,
		TempDeratePerC: 0.01, SelfHeatC: 12,
	}
}

// Violation is a net whose RMS current exceeds its route capacity.
type Violation struct {
	Net *netlist.Net
	// IRms is the estimated RMS current, mA.
	IRms float64
	// Limit is the route capacity, mA.
	Limit float64
	// Layer names the binding (weakest) layer.
	Layer string
}

// Check scans every net of a run analyzer, routed as trees routes it. The
// binding layer is the lowest-capacity layer the net's tree routes on.
// Clock nets (driving flip-flop CK pins) see activity 1 — every cycle
// switches — which is why clock EM dominates real reports.
func Check(a *sta.Analyzer, lib *liberty.Library, stack *parasitics.Stack,
	trees *sta.Parasitics, cfg Config) []Violation {
	var out []Violation
	for _, n := range a.D.Nets {
		t := trees.Tree(n)
		if t == nil || n.Driver == nil {
			continue
		}
		// Binding layer: minimum capacity over routed layers.
		width := 1.0
		if cfg.WidthFactor != nil {
			width = cfg.WidthFactor(n)
		}
		limit := math.Inf(1)
		layerName := ""
		for _, li := range t.Layer {
			if li < 0 || int(li) >= len(stack.Layers) {
				continue
			}
			l := stack.Layers[li]
			cap := l.JMaxPerUm * l.MinWidthUm * width
			if cap < limit {
				limit = cap
				layerName = l.Name
			}
		}
		if math.IsInf(limit, 1) {
			continue
		}
		// Temperature derate (analysis temp + self-heating vs 105 °C ref).
		dT := (a.Cfg.Lib.PVT.Temp + cfg.SelfHeatC) - 105
		if dT > 0 {
			limit *= math.Max(0.2, 1-cfg.TempDeratePerC*dT)
		}
		// Current: switched charge per cycle over the cycle, RMS-adjusted.
		activity := cfg.Activity
		if isClockNet(lib, n) {
			activity = 1
		}
		cTot := a.NetLoad(n)
		iAvg := cTot * lib.PVT.Voltage * cfg.FreqGHz * activity / 1000 // mA
		iRms := iAvg * cfg.CrestFactor
		if iRms > limit {
			out = append(out, Violation{Net: n, IRms: iRms, Limit: limit, Layer: layerName})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].IRms/out[i].Limit > out[j].IRms/out[j].Limit
	})
	return out
}

// isClockNet reports whether the net drives a flip-flop clock pin, or a
// clock-gating cell's clock pin (the gated subtree continues downstream).
func isClockNet(lib *liberty.Library, n *netlist.Net) bool {
	for _, l := range n.Loads {
		m := lib.Cell(l.Cell.TypeName)
		if m == nil {
			continue
		}
		if m.FF != nil && l.Name == m.FF.Clock {
			return true
		}
		if m.Gate != nil && l.Name == m.Gate.Clock {
			return true
		}
	}
	return false
}
