package liberty

import (
	"fmt"

	"newgame/internal/units"
)

// ArcSense is the unateness of a timing arc: how an input transition maps to
// an output transition direction.
type ArcSense int

const (
	// PositiveUnate arcs propagate rise→rise and fall→fall (buffers, AND).
	PositiveUnate ArcSense = iota
	// NegativeUnate arcs propagate rise→fall and fall→rise (inverting gates).
	NegativeUnate
	// NonUnate arcs propagate each input edge to both output edges (XOR,
	// MUX select).
	NonUnate
)

func (s ArcSense) String() string {
	switch s {
	case PositiveUnate:
		return "positive_unate"
	case NegativeUnate:
		return "negative_unate"
	default:
		return "non_unate"
	}
}

// TimingArc is a combinational (or clock-to-output) delay arc from an input
// pin to an output pin. Delay and slew tables are indexed (input slew ps,
// output load fF). Rise/Fall refer to the *output* transition direction.
type TimingArc struct {
	From, To string
	Sense    ArcSense

	DelayRise, DelayFall *Table2D
	SlewRise, SlewFall   *Table2D

	// SigmaRise/SigmaFall are POCV-style per-arc delay sigmas (one number
	// per slew/load point, symmetric). Nil until variation characterization
	// fills them in.
	SigmaRise, SigmaFall *Table2D

	// LVF-style separate early/late sigmas (paper §3.1: LVF "provides one
	// number per load-slew combination per cell", with separate σ for late
	// (setup) vs early (hold) analyses — Figure 7).
	SigmaEarlyRise, SigmaEarlyFall *Table2D
	SigmaLateRise, SigmaLateFall   *Table2D

	// MISFactorFall/MISFactorRise bound the multi-input-switching delay
	// change for this arc relative to single-input switching (paper §2.1):
	// the worst speed-up factor when near-simultaneous inputs switch the
	// same direction (used in hold analysis) and the worst slow-down factor
	// (used in setup analysis). 1.0 means SIS-equal; filled in by the MIS
	// characterization in internal/variation or by the generator defaults.
	MISFactorFast, MISFactorSlow float64
}

// Delay looks up the arc delay for the given output transition.
func (a *TimingArc) Delay(outRise bool, slew, load float64) units.Ps {
	if outRise {
		return a.DelayRise.Lookup(slew, load)
	}
	return a.DelayFall.Lookup(slew, load)
}

// Slew looks up the output slew for the given output transition.
func (a *TimingArc) Slew(outRise bool, slew, load float64) units.Ps {
	if outRise {
		return a.SlewRise.Lookup(slew, load)
	}
	return a.SlewFall.Lookup(slew, load)
}

// PinSpec describes one library-cell pin.
type PinSpec struct {
	Name string
	// Input reports direction; output pins have Cap = 0.
	Input bool
	// Cap is the input pin capacitance, fF.
	Cap units.FF
	// IsClock marks flip-flop clock pins.
	IsClock bool
	// MaxCap is the output pin's maximum capacitance DRC limit, fF
	// (outputs only).
	MaxCap units.FF
}

// FFSpec carries flip-flop constraint and clock-to-q data. Constraint
// tables are indexed (data slew ps, clock slew ps); the C2Q tables are
// indexed (clock slew ps, output load fF) like ordinary delay arcs.
type FFSpec struct {
	Clock, Data, Q string
	// Rising-edge-triggered throughout this repository.
	SetupRise, SetupFall *Table2D // constraint for data rising/falling
	HoldRise, HoldFall   *Table2D
	C2QRise, C2QFall     *Table2D
}

// GatingSpec carries an integrated-clock-gating cell's enable constraint
// and gated-clock arc data. The enable must be stable around the clock
// edge exactly like a flip-flop's data — the "clock gating increases the
// timing closure burden" of paper §1.2 made concrete.
type GatingSpec struct {
	Clock, Enable, Out string
	// SetupRise/HoldRise constrain the enable versus the rising clock
	// edge, indexed (enable slew, clock slew).
	SetupRise, HoldRise *Table2D
}

// Cell is a library master.
type Cell struct {
	Name string
	// Function identifies the logic family: INV, BUF, NAND2, ... DFF.
	Function string
	// Drive is the strength multiple (X1 = 1, X2 = 2, ...).
	Drive float64
	Vt    VtClass

	Area    float64 // µm²
	Leakage units.NW
	// MaxTran is the maximum input slew DRC limit, ps.
	MaxTran units.Ps

	Pins []PinSpec
	Arcs []TimingArc
	FF   *FFSpec
	// Gate is non-nil for integrated clock-gating cells.
	Gate *GatingSpec
}

// Pin returns the named pin spec, or nil.
func (c *Cell) Pin(name string) *PinSpec {
	for i := range c.Pins {
		if c.Pins[i].Name == name {
			return &c.Pins[i]
		}
	}
	return nil
}

// InputCap returns the capacitance of the named input pin (0 if absent).
func (c *Cell) InputCap(name string) units.FF {
	if p := c.Pin(name); p != nil {
		return p.Cap
	}
	return 0
}

// Arc returns the arc from→to, or nil.
func (c *Cell) Arc(from, to string) *TimingArc {
	for i := range c.Arcs {
		if c.Arcs[i].From == from && c.Arcs[i].To == to {
			return &c.Arcs[i]
		}
	}
	return nil
}

// IsSequential reports whether the cell is a flip-flop.
func (c *Cell) IsSequential() bool { return c.FF != nil }

// CellName composes the canonical master name, e.g. NAND2_X2_SVT.
func CellName(function string, drive float64, vt VtClass) string {
	if drive == float64(int(drive)) {
		return fmt.Sprintf("%s_X%d_%s", function, int(drive), vt)
	}
	return fmt.Sprintf("%s_X%g_%s", function, drive, vt)
}

// Library is a set of cells characterized at one PVT point.
type Library struct {
	Name string
	Tech TechParams
	PVT  PVT

	cells map[string]*Cell
	// drive ladder per function, ascending
	drives map[string][]float64
}

// NewLibrary returns an empty library for the given tech/PVT.
func NewLibrary(name string, tech TechParams, pvt PVT) *Library {
	return &Library{
		Name:   name,
		Tech:   tech,
		PVT:    pvt,
		cells:  make(map[string]*Cell),
		drives: make(map[string][]float64),
	}
}

// Add registers a cell master.
func (l *Library) Add(c *Cell) {
	l.cells[c.Name] = c
	ds := l.drives[c.Function]
	found := false
	for _, d := range ds {
		if d == c.Drive {
			found = true
			break
		}
	}
	if !found {
		ds = append(ds, c.Drive)
		for i := len(ds) - 1; i > 0 && ds[i] < ds[i-1]; i-- {
			ds[i], ds[i-1] = ds[i-1], ds[i]
		}
		l.drives[c.Function] = ds
	}
}

// Cell returns the named master, or nil.
func (l *Library) Cell(name string) *Cell { return l.cells[name] }

// Cells returns all masters (unordered map — callers needing determinism
// should sort by name).
func (l *Library) Cells() map[string]*Cell { return l.cells }

// Variant returns the master with the same function as c but the given drive
// and Vt, or nil if the library does not contain it. This is the lookup
// under gate sizing and Vt swap.
func (l *Library) Variant(c *Cell, drive float64, vt VtClass) *Cell {
	return l.cells[CellName(c.Function, drive, vt)]
}

// Drives returns the ascending drive ladder available for a function.
func (l *Library) Drives(function string) []float64 { return l.drives[function] }
