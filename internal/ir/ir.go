// Package ir implements dynamic IR-drop analysis: activity-driven supply
// droop across the placed rows, converted into per-cell delay derates that
// the STA engine consumes (paper §4 Comment 1: signoff STA tools offer
// "comprehension of dynamic IR effects ('-dynamic' analysis options)";
// Figure 2 lists dynamic IR among the NEW goal posts).
//
// The grid model: each placement row is a resistive rail fed from power
// straps at both ends. Cells draw switching current proportional to their
// load and activity; for a (piecewise) uniform current density J and rail
// resistance r per micron, the droop at position x along a span of length
// L fed from both ends is J·r·x(L−x)/2 — maximal mid-span.
package ir

import (
	"math"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/place"
	"newgame/internal/units"
)

// Config sets the grid and activity model.
type Config struct {
	// RailRes is the rail resistance per micron of row, kΩ/µm (mΩ-class in
	// kΩ units).
	RailRes units.KOhm
	// StrapPitch is the distance between power straps along the row, µm;
	// each span between straps is fed from both ends.
	StrapPitch units.Um
	// Activity is the average switching activity (transitions per cycle).
	Activity float64
	// FreqGHz converts switched charge to current.
	FreqGHz float64
	// SimultaneityFactor models the dynamic (di/dt) peak over the average
	// current — the "dynamic" in dynamic IR.
	SimultaneityFactor float64
}

// DefaultConfig is a GHz-class digital block with straps every 50 µm.
func DefaultConfig() Config {
	return Config{
		RailRes: 0.0006, StrapPitch: 50, Activity: 0.15,
		FreqGHz: 1.0, SimultaneityFactor: 3,
	}
}

// Analysis holds the computed droop map.
type Analysis struct {
	cfg Config
	lib *liberty.Library
	// Droop per cell, volts.
	droop map[*netlist.Cell]units.Volt
	// MaxDroop and the average.
	MaxDroop, MeanDroop units.Volt
}

// cellCurrent estimates a cell's average switching current, mA: dynamic
// C·V·f·activity plus leakage.
func cellCurrent(lib *liberty.Library, c *netlist.Cell, cfg Config) float64 {
	m := lib.Cell(c.TypeName)
	if m == nil {
		return 0
	}
	// Switched cap: own parasitic plus the input caps it drives.
	sw := lib.Tech.CparUnit * m.Drive
	if out := c.Output(); out != nil && out.Net != nil {
		for _, l := range out.Net.Loads {
			sw += lib.Cell(l.Cell.TypeName).InputCap(l.Name)
		}
	}
	// fF · V · GHz = mA·10^-3... in this unit system fF·V/ns = µA, so
	// divide by 1000 for mA.
	dyn := sw * lib.PVT.Voltage * cfg.FreqGHz * cfg.Activity / 1000
	leak := m.Leakage * 1e-6 / math.Max(lib.PVT.Voltage, 0.1) // nW/V = nA → mA
	return dyn*cfg.SimultaneityFactor + leak
}

// Run computes the droop map for a placed design.
func Run(p *place.Placement, lib *liberty.Library, cfg Config) *Analysis {
	an := &Analysis{cfg: cfg, lib: lib, droop: map[*netlist.Cell]units.Volt{}}
	var sum float64
	var n int
	for row := 0; row < p.Rows(); row++ {
		cells := p.RowCells(row)
		if len(cells) == 0 {
			continue
		}
		// Row span and per-span uniform current density.
		var rowLen float64
		var rowCur float64
		for _, c := range cells {
			loc := p.Loc(c)
			end := (float64(loc.Site) + float64(loc.Width)) * p.SiteWidth
			if end > rowLen {
				rowLen = end
			}
			rowCur += cellCurrent(lib, c, cfg)
		}
		if rowLen <= 0 {
			continue
		}
		j := rowCur / rowLen // mA per µm
		for _, c := range cells {
			loc := p.Loc(c)
			x := (float64(loc.Site) + float64(loc.Width)/2) * p.SiteWidth
			// Position within the strap span.
			span := cfg.StrapPitch
			xs := math.Mod(x, span)
			d := j * cfg.RailRes * xs * (span - xs) / 2
			an.droop[c] = d
			sum += d
			n++
			if d > an.MaxDroop {
				an.MaxDroop = d
			}
		}
	}
	if n > 0 {
		an.MeanDroop = sum / float64(n)
	}
	return an
}

// DerateFn returns the per-cell delay factor for sta.Config.CellDerate:
// the device-model slowdown of running at V − droop instead of V.
func (an *Analysis) DerateFn() func(*netlist.Cell) float64 {
	lib := an.lib
	base := map[liberty.VtClass]float64{}
	for _, vt := range liberty.VtClasses {
		base[vt] = lib.Tech.Req(vt, 1, lib.PVT)
	}
	return func(c *netlist.Cell) float64 {
		d, ok := an.droop[c]
		if !ok || d <= 0 {
			return 1
		}
		m := lib.Cell(c.TypeName)
		if m == nil {
			return 1
		}
		pvt := lib.PVT
		pvt.Voltage -= d
		r := lib.Tech.Req(m.Vt, 1, pvt)
		b := base[m.Vt]
		if math.IsInf(r, 1) || b <= 0 {
			return 4 // device nearly off: cap the derate
		}
		f := r / b
		if f > 4 {
			f = 4
		}
		return f
	}
}
