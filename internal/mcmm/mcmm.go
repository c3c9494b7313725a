// Package mcmm manages multi-corner multi-mode signoff: the cross product
// of functional/test modes with PVT and BEOL extraction corners that a
// complex SOC must close timing at. It models the "corner super-explosion"
// of paper §2.3 — modes × voltages × temperatures × BEOL corners × multi-
// patterned-layer mask shifts — and provides dominance-based pruning, the
// practical mitigation the paper notes ("the central engineering team that
// chooses a subset of PVT corners … has enormous influence").
package mcmm

import (
	"fmt"
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/parasitics"
	"newgame/internal/units"
)

// Mode is a functional or test operating mode with its own constraints.
type Mode struct {
	Name string
	// Kind distinguishes functional from test modes.
	Kind ModeKind
	// PeriodScale scales the base clock period in this mode (scan shift
	// typically runs much slower).
	PeriodScale float64
}

// ModeKind classifies modes.
type ModeKind int

const (
	Functional ModeKind = iota
	ScanShift
	ScanCapture
	BIST
)

func (k ModeKind) String() string {
	switch k {
	case Functional:
		return "func"
	case ScanShift:
		return "scan_shift"
	case ScanCapture:
		return "scan_capture"
	default:
		return "bist"
	}
}

// PVTCorner is a FEOL process/voltage/temperature point.
type PVTCorner struct {
	Name    string
	Process liberty.ProcessCorner
	Voltage units.Volt
	Temp    units.Celsius
	// ForSetup/ForHold mark which checks the corner is used for.
	ForSetup, ForHold bool
}

// Scenario is one signoff view: mode × PVT corner × BEOL corner.
type Scenario struct {
	Mode Mode
	PVT  PVTCorner
	BEOL parasitics.CornerKind
	// MaskShift indexes the multi-patterning mask-shift combination for
	// double-patterned layers (0 = nominal assignment).
	MaskShift int
}

// Name renders the canonical scenario name.
func (s Scenario) Name() string {
	n := fmt.Sprintf("%s/%s/%s", s.Mode.Name, s.PVT.Name, s.BEOL)
	if s.MaskShift > 0 {
		n += fmt.Sprintf("/mp%d", s.MaskShift)
	}
	return n
}

// Space describes the full signoff space before any pruning.
type Space struct {
	Modes []Mode
	PVTs  []PVTCorner
	BEOLs []parasitics.CornerKind
	// MaskShiftCombos is the number of multi-patterning shift combinations
	// per BEOL corner (2^(multi-patterned layers), 1 to disable).
	MaskShiftCombos int
}

// Enumerate expands the full scenario cross product — the corner
// super-explosion, before engineering judgment cuts it down.
func (sp Space) Enumerate() []Scenario {
	if sp.MaskShiftCombos < 1 {
		sp.MaskShiftCombos = 1
	}
	var out []Scenario
	for _, m := range sp.Modes {
		for _, p := range sp.PVTs {
			for _, b := range sp.BEOLs {
				for ms := 0; ms < sp.MaskShiftCombos; ms++ {
					out = append(out, Scenario{Mode: m, PVT: p, BEOL: b, MaskShift: ms})
				}
			}
		}
	}
	return out
}

// Count returns the scenario count without materializing them.
func (sp Space) Count() int {
	ms := sp.MaskShiftCombos
	if ms < 1 {
		ms = 1
	}
	return len(sp.Modes) * len(sp.PVTs) * len(sp.BEOLs) * ms
}

// VoltageTempGrid builds PVT corners for the given voltages and
// temperatures at the slow and fast global process corners — the pattern
// behind wide-voltage-range FinFET signoff (paper §1.2: supplies scaled
// "across a range of 0.46V to 1.25V"). Because of temperature inversion
// (paper Fig 6b), both temperature extremes are emitted per voltage when
// the voltage is near the inversion point.
func VoltageTempGrid(volts []units.Volt, temps []units.Celsius) []PVTCorner {
	var out []PVTCorner
	for _, v := range volts {
		for _, t := range temps {
			out = append(out,
				PVTCorner{
					Name:    fmt.Sprintf("SSG_%.2fV_%.0fC", v, t),
					Process: liberty.SSG, Voltage: v, Temp: t,
					ForSetup: true, ForHold: false,
				},
				PVTCorner{
					Name:    fmt.Sprintf("FFG_%.2fV_%.0fC", v, t),
					Process: liberty.FFG, Voltage: v, Temp: t,
					ForSetup: false, ForHold: true,
				})
		}
	}
	return out
}

// DefaultModes is a representative SOC mode set.
func DefaultModes() []Mode {
	return []Mode{
		{Name: "func_nominal", Kind: Functional, PeriodScale: 1},
		{Name: "func_overdrive", Kind: Functional, PeriodScale: 0.8},
		{Name: "func_underdrive", Kind: Functional, PeriodScale: 1.6},
		{Name: "scan_shift", Kind: ScanShift, PeriodScale: 4},
		{Name: "scan_capture", Kind: ScanCapture, PeriodScale: 1.2},
		{Name: "bist", Kind: BIST, PeriodScale: 1},
	}
}

// ScenarioResult couples a scenario with its analysis outcome for pruning.
type ScenarioResult struct {
	Scenario Scenario
	SetupWNS units.Ps
	HoldWNS  units.Ps
}

// PruneDominated removes scenarios whose timing is provably covered by a
// retained scenario, using per-scenario WNS observations from a calibration
// analysis run: scenario A dominates B for setup when A's setup WNS is
// lower (worse) by at least margin and they share mode kind. This is the
// observational dominance tools and teams actually use (a full proof of
// dominance is impossible — "pruning of corners is difficult!", paper §2.3
// footnote 10).
func PruneDominated(rs []ScenarioResult, margin units.Ps) (keep, pruned []ScenarioResult) {
	// Sort worst-first by setup WNS so dominators come early.
	sorted := append([]ScenarioResult(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].SetupWNS+sorted[i].HoldWNS < sorted[j].SetupWNS+sorted[j].HoldWNS
	})
	for _, r := range sorted {
		dominated := false
		for _, k := range keep {
			if k.Scenario.Mode.Kind != r.Scenario.Mode.Kind {
				continue
			}
			if k.SetupWNS <= r.SetupWNS-margin && k.HoldWNS <= r.HoldWNS-margin {
				dominated = true
				break
			}
		}
		if dominated {
			pruned = append(pruned, r)
		} else {
			keep = append(keep, r)
		}
	}
	return keep, pruned
}
