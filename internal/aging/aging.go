// Package aging models bias-temperature-instability (BTI) device aging and
// the aging-aware signoff methodology of paper §3.3 (Chan, Chan & Kahng,
// TCAS-I 2014 — the paper's reference [1] and Figure 9): the chicken-egg
// loop between adaptive voltage scaling and aging (raising VDD to
// compensate ΔVt accelerates further ΔVt), the choice of an aging signoff
// corner, and the lifetime power / area consequences of under- or
// over-estimating aging at signoff.
package aging

import (
	"math"

	"newgame/internal/liberty"
	"newgame/internal/units"
)

// BTIModel is a reaction–diffusion-style DC BTI threshold-shift model:
//
//	ΔVt(t) = A · exp(γ·V) · exp(−Ea/kT) · t^n
//
// with t in years. The voltage acceleration γ is what closes the AVS
// chicken-egg loop.
type BTIModel struct {
	// A is the prefactor, volts at 1 year, V=0, T→∞ reference.
	A float64
	// Gamma is the voltage acceleration, 1/V.
	Gamma float64
	// EaOverK is the activation energy over Boltzmann constant, kelvin.
	EaOverK float64
	// N is the time exponent (≈1/6 for DC stress).
	N float64
}

// DefaultBTI is calibrated so a 16nm-class device at 0.8V/105°C shifts
// ≈35 mV over a 10-year lifetime — the magnitude industry signoff margins
// carry for BTI.
var DefaultBTI = BTIModel{A: 320, Gamma: 3.0, EaOverK: 4500, N: 1.0 / 6.0}

// DeltaVt returns the threshold shift (V) after years of DC stress at the
// given supply and temperature.
func (m BTIModel) DeltaVt(years float64, v units.Volt, temp units.Celsius) units.Volt {
	if years <= 0 {
		return 0
	}
	return m.A * math.Exp(m.Gamma*v) * math.Exp(-m.EaOverK/units.Kelvin(temp)) * math.Pow(years, m.N)
}

// EquivalentStressYears inverts the model: the stress time at (v, temp)
// that would produce the given ΔVt. Used to accumulate aging across a
// varying-voltage history (the standard reaction-diffusion bookkeeping).
func (m BTIModel) EquivalentStressYears(dvt float64, v units.Volt, temp units.Celsius) float64 {
	if dvt <= 0 {
		return 0
	}
	base := m.A * math.Exp(m.Gamma*v) * math.Exp(-m.EaOverK/units.Kelvin(temp))
	if base <= 0 {
		return 0
	}
	return math.Pow(dvt/base, 1/m.N)
}

// CircuitModel abstracts a design for lifetime simulation: an effective
// critical path plus total switching capacitance and leakage, all derived
// from the device model so voltage and ΔVt move delay and power together.
type CircuitModel struct {
	Name string
	Tech liberty.TechParams
	// Stages is the critical-path logic depth.
	Stages int
	// WireFrac is the wire fraction of path delay at nominal VDD (wire
	// delay does not scale with voltage — the gate-wire balance effect).
	WireFrac float64
	// SwitchCap is the total switched capacitance per cycle at sizing 1,
	// fF (dynamic power ∝ SwitchCap · V²·f).
	SwitchCap units.FF
	// LeakNW is the total leakage at sizing 1 and nominal PVT, nW.
	LeakNW units.NW
	// TargetPs is the cycle-time budget; constructors calibrate it so the
	// target sits in the tension zone where the aging allowance drives
	// sizing (reference sizing ≈ 1.4 at the signoff voltage with a
	// mid-range aging assumption).
	TargetPs units.Ps
	// Temp is the operating temperature for aging and leakage.
	Temp units.Celsius
	// Sizing is the drive/area scale factor chosen at signoff (1 = as
	// generated). Upsizing speeds the gate part of the path at the cost of
	// area, switched cap and leakage.
	Sizing float64
}

// Representative Figure 9 circuits: ISCAS c5315/c7552 plus AES- and
// MPEG2-scale blocks, with depth/wire characteristics matching their
// structure (AES is shallow and wide; MPEG2 deeper and more wire-bound).
func C5315Model() CircuitModel {
	return calibrated(CircuitModel{Name: "c5315", Tech: liberty.Node16, Stages: 16, WireFrac: 0.12,
		SwitchCap: 2800, LeakNW: 4200, Temp: 105, Sizing: 1}, 1.40)
}

func C7552Model() CircuitModel {
	return calibrated(CircuitModel{Name: "c7552", Tech: liberty.Node16, Stages: 18, WireFrac: 0.15,
		SwitchCap: 4100, LeakNW: 6300, Temp: 105, Sizing: 1}, 1.30)
}

func AESModel() CircuitModel {
	return calibrated(CircuitModel{Name: "AES", Tech: liberty.Node16, Stages: 14, WireFrac: 0.20,
		SwitchCap: 14000, LeakNW: 21000, Temp: 105, Sizing: 1}, 1.60)
}

func MPEG2Model() CircuitModel {
	return calibrated(CircuitModel{Name: "MPEG2", Tech: liberty.Node16, Stages: 22, WireFrac: 0.30,
		SwitchCap: 10500, LeakNW: 15500, Temp: 105, Sizing: 1}, 1.25)
}

// calibrated pins the cycle target to the delay achieved at the signoff
// voltage with the reference sizing under a mid-range aging assumption —
// the "product spec is what the process can just deliver" situation the
// race to the roadmap end creates.
func calibrated(c CircuitModel, refSizing float64) CircuitModel {
	ref := c
	ref.Sizing = refSizing
	c.TargetPs = ref.Delay(c.Tech.VDDNominal, 0.030)
	return c
}

// AllModels returns the Figure 9 circuit set.
func AllModels() []CircuitModel {
	return []CircuitModel{C5315Model(), C7552Model(), AESModel(), MPEG2Model()}
}

// Delay returns the critical-path delay (ps) at supply v with aged devices
// (ΔVt applied to all thresholds).
func (c CircuitModel) Delay(v units.Volt, dvt units.Volt) units.Ps {
	pvt := liberty.PVT{Process: liberty.TT, Voltage: v, Temp: c.Temp}
	// Aged device: shift the threshold by reducing the overdrive.
	agedPVT := pvt
	agedPVT.Voltage = v - dvt // (V − (Vt+ΔVt))^α ≡ ((V−ΔVt) − Vt)^α
	r1 := c.Tech.Req(liberty.SVT, 1, agedPVT) * (v / math.Max(v-dvt, 1e-9))
	if math.IsInf(r1, 1) {
		return math.Inf(1)
	}
	// Per-stage load split: self parasitic scales with sizing (cancels the
	// 1/s drive gain — the self-loading floor), while side fanout gate
	// caps and wire load are fixed, which is where upsizing buys speed.
	selfCap := c.Tech.CparUnit * c.Sizing
	fixedCap := c.Tech.CinUnit*2.2 + c.wireCapPerStage()
	perStage := 0.69 * (r1 / c.Sizing) * (selfCap + fixedCap)
	wireDelay := c.wireDelayPerStage() // voltage-independent
	return float64(c.Stages) * (perStage + wireDelay)
}

// wireCapPerStage derives the fixed wire capacitance per stage from the
// wire fraction at nominal conditions.
func (c CircuitModel) wireCapPerStage() units.FF {
	// At nominal V and sizing 1, wire contributes WireFrac of stage delay;
	// half through extra driver load, half through wire RC (fixed).
	pvt := liberty.PVT{Process: liberty.TT, Voltage: c.Tech.VDDNominal, Temp: c.Temp}
	r := c.Tech.Req(liberty.SVT, 1, pvt)
	gateCap := c.Tech.CinUnit*2.2 + c.Tech.CparUnit
	gatePart := 0.69 * r * gateCap
	target := gatePart * c.WireFrac / (1 - c.WireFrac) / 2
	return target / (0.69 * r)
}

func (c CircuitModel) wireDelayPerStage() units.Ps {
	pvt := liberty.PVT{Process: liberty.TT, Voltage: c.Tech.VDDNominal, Temp: c.Temp}
	r := c.Tech.Req(liberty.SVT, 1, pvt)
	gateCap := c.Tech.CinUnit*2.2 + c.Tech.CparUnit
	gatePart := 0.69 * r * gateCap
	return gatePart * c.WireFrac / (1 - c.WireFrac) / 2
}

// TargetDelay returns the cycle-time budget, ps.
func (c CircuitModel) TargetDelay() units.Ps { return c.TargetPs }

// FreqGHz returns the frequency implied by the cycle budget.
func (c CircuitModel) FreqGHz() float64 { return 1000 / c.TargetPs }

// Power returns total power (nW-scale arbitrary units) at supply v with
// ΔVt-aged leakage: dynamic C·V²·f plus leakage. Activity is folded into
// SwitchCap.
func (c CircuitModel) Power(v units.Volt, dvt units.Volt) float64 {
	dyn := (c.SwitchCap*c.Sizing + float64(c.Stages)*c.wireCapPerStage()) * v * v * c.FreqGHz()
	pvt := liberty.PVT{Process: liberty.TT, Voltage: v, Temp: c.Temp}
	// Aging raises Vt, which *reduces* leakage over life.
	leakScale := math.Exp(-dvt / (c.Tech.VtStep / math.Log(c.Tech.LeakVtFactor)))
	leak := c.LeakNW * c.Sizing * leakScale * (v / c.Tech.VDDNominal) *
		math.Pow(2, (c.Temp-25)/40) / math.Pow(2, (105.0-25)/40) *
		(c.Tech.Leakage(liberty.SVT, 1, pvt) / c.Tech.Leakage(liberty.SVT, 1,
			liberty.PVT{Process: liberty.TT, Voltage: c.Tech.VDDNominal, Temp: c.Temp}))
	return dyn + leak
}

// Area returns the normalized layout area (sizing-proportional).
func (c CircuitModel) Area() float64 { return c.Sizing }

// SizeFor returns a copy of the model sized (by bisection on the sizing
// factor) to meet the frequency target at supply v with an assumed aging
// ΔVt — the signoff step. An error of +Inf delay (device cannot switch) or
// an unreachable target yields the maximum sizing.
func (c CircuitModel) SizeFor(v units.Volt, assumedDvt units.Volt) CircuitModel {
	target := c.TargetDelay()
	lo, hi := 0.4, 12.0
	out := c
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		out.Sizing = mid
		if out.Delay(v, assumedDvt) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	out.Sizing = hi
	return out
}
