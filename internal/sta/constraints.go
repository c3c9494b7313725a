// Package sta is the static timing analysis engine: graph-based analysis
// (GBA) with rise/fall × early/late arrival propagation, NLDM delay
// calculation over RC parasitics, clock propagation with CRPR, setup/hold
// checks against flip-flop constraint tables, max-transition/max-cap DRCs,
// SI delta-delay, multi-input-switching derates, a pluggable on-chip-
// variation stack (flat OCV, AOCV, POCV, LVF), and path-based analysis
// (PBA) that re-times critical paths with path-specific slews and depths.
package sta

import (
	"newgame/internal/netlist"
	"newgame/internal/units"
)

// Clock is a constraint-level clock definition rooted at one or more input
// ports.
type Clock struct {
	Name   string
	Period units.Ps
	// Roots are the input ports the clock enters through.
	Roots []*netlist.Port
	// SourceLatency is the off-chip/PLL insertion delay added at the root.
	SourceLatency units.Ps
	// SetupUncertainty/HoldUncertainty are the flat jitter+skew margins
	// subtracted from the available cycle (the "flat margin rug" of the
	// paper's §1.3 footnote 5).
	SetupUncertainty units.Ps
	HoldUncertainty  units.Ps
}

// IODelay constrains a primary input's arrival or a primary output's
// external requirement relative to a clock.
type IODelay struct {
	Clock *Clock
	Min   units.Ps
	Max   units.Ps
}

// Constraints is the SDC-equivalent constraint set for one analysis mode.
type Constraints struct {
	Clocks []*Clock
	// InputDelay maps input ports to their external arrival window.
	InputDelay map[*netlist.Port]IODelay
	// OutputDelay maps output ports to their external requirement.
	OutputDelay map[*netlist.Port]IODelay
	// InputSlew is the transition time assumed at input ports, ps.
	InputSlew units.Ps
	// ExtraCKLatency holds per-flip-flop intentional clock-arrival offsets
	// (useful skew, from optimization). Positive delays the FF's clock.
	ExtraCKLatency map[*netlist.Cell]units.Ps
	// PortLoad is the external capacitance on output ports, fF.
	PortLoad units.FF
	// MulticycleSetup relaxes the setup check at a capture flip-flop to N
	// cycles (N ≥ 1; absent = 1). The hold check stays single-cycle, per
	// the common SDC usage.
	MulticycleSetup map[*netlist.Cell]int
	// FalseFrom excludes all paths launched from an input port from timing
	// checks (set_false_path -from): the port's arrival is not seeded.
	FalseFrom map[*netlist.Port]bool
}

// NewConstraints returns an empty constraint set with sane defaults.
func NewConstraints() *Constraints {
	c := &Constraints{
		InputDelay:      make(map[*netlist.Port]IODelay),
		OutputDelay:     make(map[*netlist.Port]IODelay),
		ExtraCKLatency:  make(map[*netlist.Cell]units.Ps),
		MulticycleSetup: make(map[*netlist.Cell]int),
		FalseFrom:       make(map[*netlist.Port]bool),
	}
	c.Reset()
	return c
}

// Reset empties c back to the defaults on its own storage: the maps are
// cleared, not replaced, so a set refilled on every re-time allocates only
// what outgrows them.
func (c *Constraints) Reset() {
	c.Clocks = c.Clocks[:0]
	clear(c.InputDelay)
	clear(c.OutputDelay)
	clear(c.ExtraCKLatency)
	clear(c.MulticycleSetup)
	clear(c.FalseFrom)
	c.InputSlew, c.PortLoad = 20, 4
}

// AddClock defines a clock on the given root ports.
func (c *Constraints) AddClock(name string, period units.Ps, roots ...*netlist.Port) *Clock {
	ck := &Clock{Name: name, Period: period, Roots: roots}
	c.Clocks = append(c.Clocks, ck)
	return ck
}

// clockOf returns the clock rooted at the port, or nil.
func (c *Constraints) clockOf(p *netlist.Port) *Clock {
	for _, ck := range c.Clocks {
		for _, r := range ck.Roots {
			if r == p {
				return ck
			}
		}
	}
	return nil
}

// DefaultClock returns the first defined clock (the common single-clock
// case), or nil.
func (c *Constraints) DefaultClock() *Clock {
	if len(c.Clocks) == 0 {
		return nil
	}
	return c.Clocks[0]
}
