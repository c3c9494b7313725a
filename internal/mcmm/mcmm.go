// Package mcmm manages multi-corner multi-mode signoff: the cross product
// of functional/test modes with PVT and BEOL extraction corners that a
// complex SOC must close timing at. It models the "corner super-explosion"
// of paper §2.3 — modes × voltages × temperatures × BEOL corners × multi-
// patterned-layer mask shifts — and holds the repository's one scenario-
// dominance rule, the practical mitigation the paper notes ("the central
// engineering team that chooses a subset of PVT corners … has enormous
// influence"). The rule is sound, not observational: it prunes a scenario
// only when a sibling with identical delays checks it at least as tightly.
// Space.Prune applies it to a space; triage.PlanFor applies it to a
// recipe's scenarios.
package mcmm

import (
	"fmt"

	"newgame/internal/liberty"
	"newgame/internal/parasitics"
	"newgame/internal/units"
)

// Mode is a functional or test operating mode with its own constraints.
// Of its constraints the timing model carries only the clock period.
type Mode struct {
	Name string
	// PeriodScale scales the base clock period in this mode (scan shift
	// typically runs much slower).
	PeriodScale float64
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
// "across a range of 0.46V to 1.25V"). Every (voltage, temperature) pair
// is emitted twice: at SSG for setup and at FFG for hold. Temperature
// inversion (paper Fig 6b) makes the slow temperature flip with the
// voltage, so neither temperature extreme can be dropped a priori.
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
		{Name: "func_nominal", PeriodScale: 1},
		{Name: "func_overdrive", PeriodScale: 0.8},
		{Name: "func_underdrive", PeriodScale: 1.6},
		{Name: "scan_shift", PeriodScale: 4},
		{Name: "scan_capture", PeriodScale: 1.2},
		{Name: "bist", PeriodScale: 1},
	}
}

// Bound is what the dominance rule reads of one scenario. Class names its
// delay configuration: two scenarios of one class produce bit-identical
// arrivals, slews and paths, so only their checks can differ; a mode
// enters only through PeriodScale.
type Bound struct {
	Class                             int
	PeriodScale                       float64
	SetupUncertainty, HoldUncertainty units.Ps
	ForSetup, ForHold                 bool
}

// check is one check kind of a Bound: whether the scenario signs it off,
// and the period and uncertainty that shift it. A hold check compares a
// launch and a capture of the same edge, so the period cancels out of it.
type check struct {
	on     bool
	period float64
	unc    units.Ps
}

func (b Bound) check(hold bool) check {
	if hold {
		return check{b.ForHold, 0, b.HoldUncertainty}
	}
	return check{b.ForSetup, b.PeriodScale, b.SetupUncertainty}
}

// tighter orders checks by the bound they put on slack: shorter period
// first, then larger uncertainty, then lower index — a strict total order.
func tighter(a, b check, i, j int) bool {
	if a.period != b.period {
		return a.period < b.period
	}
	if a.unc != b.unc {
		return a.unc > b.unc
	}
	return i < j
}

// dominates is the dominance rule: scenario i's check of the kind bounds
// scenario j's at every endpoint. Both sign the check off, their delays
// are identical (one class), and i's bound is uniformly at least as tight
// — period no longer, uncertainty no smaller — with the order of tighter
// breaking ties, so dominance is a strict partial order: no cycles.
func dominates(bs []Bound, hold bool, i, j int) bool {
	a, b := bs[i].check(hold), bs[j].check(hold)
	return bs[i].Class == bs[j].Class && a.on && b.on &&
		a.period <= b.period && a.unc >= b.unc && tighter(a, b, i, j)
}

// Dominators applies the dominance rule to a scenario list: per scenario
// and check kind, the index of the tightest scenario that dominates it, or
// -1 when none does. The tightest dominator is itself undominated (by
// transitivity, its own dominator would be a tighter one), so resolving a
// prune never chases a chain.
func Dominators(bs []Bound) (setup, hold []int) {
	classes := map[int][]int{}
	for i, b := range bs {
		classes[b.Class] = append(classes[b.Class], i)
	}
	pick := func(hold bool) []int {
		dom := make([]int, len(bs))
		for j, b := range bs {
			dom[j] = -1
			for _, i := range classes[b.Class] {
				if dominates(bs, hold, i, j) &&
					(dom[j] < 0 || tighter(bs[i].check(hold), bs[dom[j]].check(hold), i, dom[j])) {
					dom[j] = i
				}
			}
		}
		return dom
	}
	return pick(false), pick(true)
}

// Pruning is the dominance rule applied to a space's scenarios.
type Pruning struct {
	Scenarios []Scenario
	// SetupDominator/HoldDominator give, per scenario, the index of the
	// scenario whose check bounds its own, or -1 when none does.
	SetupDominator, HoldDominator []int
}

// Prune enumerates the space and applies the dominance rule to it. A
// scenario's delays are fixed by its PVT corner, BEOL corner and mask
// shift, which make its class; its mode contributes only its period scale,
// and the space carries no uncertainty. So in each class the
// fastest-clocked mode bounds every other setup check, and the first mode
// every other hold check.
func (sp Space) Prune() Pruning {
	type class struct {
		pvt       PVTCorner
		beol      parasitics.CornerKind
		maskShift int
	}
	p := Pruning{Scenarios: sp.Enumerate()}
	ids := map[class]int{}
	bs := make([]Bound, len(p.Scenarios))
	for i, sc := range p.Scenarios {
		k := class{sc.PVT, sc.BEOL, sc.MaskShift}
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
		}
		bs[i] = Bound{Class: id, PeriodScale: sc.Mode.PeriodScale,
			ForSetup: sc.PVT.ForSetup, ForHold: sc.PVT.ForHold}
	}
	p.SetupDominator, p.HoldDominator = Dominators(bs)
	return p
}

// Kept reports whether scenario i signs off a check that no other scenario
// bounds.
func (p Pruning) Kept(i int) bool {
	pvt := p.Scenarios[i].PVT
	return pvt.ForSetup && p.SetupDominator[i] < 0 || pvt.ForHold && p.HoldDominator[i] < 0
}
