// Package avs implements adaptive voltage scaling: on-die critical-path-
// mimicking monitors (the DDRO idea of the paper's reference [3]), a
// closed-loop voltage controller, and the signoff comparison behind the
// paper's "AVS has been a true game-changer: it enables setup timing to be
// closed at typical corners" (§1.3) — worst-case fixed-voltage signoff
// versus per-die adaptive voltage.
package avs

import (
	"math"

	"newgame/internal/aging"
	"newgame/internal/liberty"
	"newgame/internal/units"
)

// Monitor is a ring-oscillator-style delay monitor built from the same
// device model as the product logic. A design-dependent monitor (DDRO)
// mimics the critical path's Vt mix and wire fraction; a generic monitor
// tracks less faithfully and needs more controller margin.
type Monitor struct {
	Tech   liberty.TechParams
	Stages int
	Vt     liberty.VtClass
	// WireFrac is the voltage-insensitive fraction of the monitor delay.
	WireFrac float64
}

// DDROFor builds a monitor matched to a circuit model (same wire fraction
// and depth class).
func DDROFor(c aging.CircuitModel) Monitor {
	return Monitor{Tech: c.Tech, Stages: c.Stages, Vt: liberty.SVT, WireFrac: c.WireFrac}
}

// Delay returns the monitor delay (ps) on a die at the given process
// corner, supply, temperature and accumulated aging.
func (m Monitor) Delay(pc liberty.ProcessCorner, v units.Volt, temp units.Celsius, dvt units.Volt) units.Ps {
	pvt := liberty.PVT{Process: pc, Voltage: v - dvt, Temp: temp}
	r := m.Tech.Req(m.Vt, 1, pvt) * (v / math.Max(v-dvt, 1e-9))
	if math.IsInf(r, 1) {
		return math.Inf(1)
	}
	gate := 0.69 * r * (m.Tech.CparUnit + m.Tech.CinUnit*2.2)
	wire := gate * m.WireFrac / (1 - m.WireFrac)
	return float64(m.Stages) * (gate + wire)
}

// Controller is the closed AVS loop: pick the smallest supply at which the
// monitor indicates the cycle budget is met with margin.
type Controller struct {
	Monitor Monitor
	// MonitorBudget is the monitor delay corresponding to "timing met" at
	// nominal conditions; calibrated at test.
	MonitorBudget units.Ps
	// MarginFrac is the tracking margin covering monitor-vs-path mismatch
	// (larger for generic monitors).
	MarginFrac float64
	VMin, VMax units.Volt
	VStep      units.Volt
}

// Calibrate sets the monitor budget so that, on a typical die at the
// calibration temperature, the monitor and the reference circuit hit their
// targets at the same supply — the test-time fusing step real products do.
func (ctl *Controller) Calibrate(ref aging.CircuitModel, temp units.Celsius) {
	// Find the supply where the reference circuit exactly meets target on
	// a TT die.
	v := ctl.VMin
	for v < ctl.VMax && ref.Delay(v, 0) > ref.TargetDelay() {
		v += 0.001
	}
	ctl.MonitorBudget = ctl.Monitor.Delay(liberty.TT, v, temp, 0)
}

// PickVoltage runs the loop on a die: smallest grid supply whose monitor
// reading is within budget/(1+margin). ok=false when even VMax fails.
func (ctl Controller) PickVoltage(pc liberty.ProcessCorner, temp units.Celsius, dvt units.Volt) (units.Volt, bool) {
	budget := ctl.MonitorBudget / (1 + ctl.MarginFrac)
	for v := ctl.VMin; v <= ctl.VMax+1e-9; v += ctl.VStep {
		if ctl.Monitor.Delay(pc, v, temp, dvt) <= budget {
			return v, true
		}
	}
	return ctl.VMax, false
}

// DieOutcome is one die's operating point under a signoff strategy.
type DieOutcome struct {
	Corner liberty.ProcessCorner
	V      units.Volt
	Power  float64
	// Met reports whether the die actually meets the circuit's target at V.
	Met bool
}

// Comparison contrasts worst-case fixed-voltage signoff with AVS.
type Comparison struct {
	FixedV units.Volt
	Fixed  []DieOutcome
	AVS    []DieOutcome
	// MeanPowerSaving is the population-average power saving of AVS vs
	// fixed (fraction, 0..1).
	MeanPowerSaving float64
	// DCMarginPs is the worst-case margin the fixed strategy carries on a
	// typical die — the "DC component of timing margin" AVS removes
	// (paper footnote 6).
	DCMarginPs units.Ps
}

// Compare evaluates both strategies across a die population (process
// corners with their share of material). The fixed voltage is chosen so the
// slowest die meets timing — the worst-case signoff AVS replaces.
func Compare(ctl Controller, c aging.CircuitModel, dies []liberty.ProcessCorner, temp units.Celsius) Comparison {
	var cmp Comparison
	// Worst-case voltage: slowest die (max Vt shift / min drive).
	fixedV := ctl.VMin
	for _, pc := range dies {
		v := ctl.VMin
		for v < ctl.VMax && circuitDelayAt(c, pc, v, temp) > c.TargetDelay() {
			v += ctl.VStep
		}
		if v > fixedV {
			fixedV = v
		}
	}
	cmp.FixedV = fixedV
	var fixedP, avsP float64
	for _, pc := range dies {
		fp := powerAt(c, pc, fixedV)
		cmp.Fixed = append(cmp.Fixed, DieOutcome{
			Corner: pc, V: fixedV, Power: fp,
			Met: circuitDelayAt(c, pc, fixedV, temp) <= c.TargetDelay(),
		})
		v, _ := ctl.PickVoltage(pc, temp, 0)
		ap := powerAt(c, pc, v)
		cmp.AVS = append(cmp.AVS, DieOutcome{
			Corner: pc, V: v, Power: ap,
			Met: circuitDelayAt(c, pc, v, temp) <= c.TargetDelay(),
		})
		fixedP += fp
		avsP += ap
	}
	if fixedP > 0 {
		cmp.MeanPowerSaving = 1 - avsP/fixedP
	}
	// DC margin on a typical die under fixed-voltage signoff.
	cmp.DCMarginPs = c.TargetDelay() - circuitDelayAt(c, liberty.TT, fixedV, temp)
	return cmp
}

// circuitDelayAt evaluates the circuit model on a die at a process corner
// (the aging.CircuitModel API is TT-based; corner enters via drive/Vt).
func circuitDelayAt(c aging.CircuitModel, pc liberty.ProcessCorner, v units.Volt, temp units.Celsius) units.Ps {
	ttPVT := liberty.PVT{Process: liberty.TT, Voltage: v, Temp: temp}
	pcPVT := liberty.PVT{Process: pc, Voltage: v, Temp: temp}
	rTT := c.Tech.Req(liberty.SVT, 1, ttPVT)
	rPC := c.Tech.Req(liberty.SVT, 1, pcPVT)
	base := c.Delay(v, 0)
	if math.IsInf(rPC, 1) || math.IsInf(base, 1) {
		return math.Inf(1)
	}
	// Scale the gate (voltage-sensitive) part by the corner's R ratio.
	wire := float64(c.Stages) * wireDelayPerStage(c)
	return (base-wire)*(rPC/rTT) + wire
}

func wireDelayPerStage(c aging.CircuitModel) units.Ps {
	// Mirror of the circuit model's internal wire split.
	pvt := liberty.PVT{Process: liberty.TT, Voltage: c.Tech.VDDNominal, Temp: c.Temp}
	r := c.Tech.Req(liberty.SVT, 1, pvt)
	gateCap := c.Tech.CinUnit*2.2 + c.Tech.CparUnit
	gatePart := 0.69 * r * gateCap
	return gatePart * c.WireFrac / (1 - c.WireFrac) / 2
}

func powerAt(c aging.CircuitModel, pc liberty.ProcessCorner, v units.Volt) float64 {
	p := c.Power(v, 0)
	// Fast corners leak more (lower Vt): scale leakage-ish share.
	leakBias := math.Exp(-pc.VtShift / 0.025)
	// Approximate leakage share at 30%.
	return p * (0.7 + 0.3*leakBias)
}
