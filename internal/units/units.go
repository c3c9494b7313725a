// Package units fixes the unit system used throughout the repository and
// provides the small numeric helpers the analysis code leans on.
//
// The conventions are chosen so that the most common product in timing
// analysis, resistance times capacitance, lands directly in the time unit:
//
//	time         picoseconds (ps)
//	capacitance  femtofarads (fF)
//	resistance   kiloohms (kΩ)      — 1 kΩ · 1 fF = 1 ps
//	voltage      volts (V)
//	temperature  degrees Celsius (°C)
//	length       microns (µm)
//	energy       femtojoules (fJ)   — 1 V² · 1 fF = 1 fJ
//	power        nanowatts (nW)     — leakage and average power
//
// All quantities are plain float64 values; the type aliases below exist to
// document intent in signatures without imposing conversion friction.
package units

import "math"

// Documented aliases. They are deliberately aliases, not defined types: the
// arithmetic in delay calculators mixes them constantly and a defined type
// would force casts at every multiply.
type (
	// Ps is a duration in picoseconds.
	Ps = float64
	// FF is a capacitance in femtofarads.
	FF = float64
	// KOhm is a resistance in kiloohms.
	KOhm = float64
	// Volt is a potential in volts.
	Volt = float64
	// Celsius is a temperature in degrees Celsius.
	Celsius = float64
	// Um is a length in microns.
	Um = float64
	// NW is a power in nanowatts.
	NW = float64
)

// Kelvin converts a Celsius temperature to kelvins.
func Kelvin(c Celsius) float64 { return c + 273.15 }

// Lerp linearly interpolates between a and b by t in [0,1]; t outside the
// range extrapolates, which is the behaviour NLDM table lookup wants at the
// table edges.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of sorted, using linear
// interpolation between order statistics. sorted must be in ascending order
// and non-empty.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return Lerp(sorted[i], sorted[i+1], frac)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than 2 values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Skewness returns the standardized third central moment of xs. Positive
// skew means a long right tail — the "setup long tail" of paper Figure 7.
func Skewness(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// SemiStddev returns the one-sided standard deviations of xs about its mean:
// the early (below-mean) and late (above-mean) sigmas. Timing models such as
// LVF carry these separately because path-delay distributions are not
// symmetric (paper Figure 7).
func SemiStddev(xs []float64) (early, late float64) {
	if len(xs) < 2 {
		return 0, 0
	}
	m := Mean(xs)
	var se, sl float64
	var ne, nl int
	for _, x := range xs {
		d := x - m
		if d < 0 {
			se += d * d
			ne++
		} else {
			sl += d * d
			nl++
		}
	}
	if ne > 0 {
		early = math.Sqrt(se / float64(ne))
	}
	if nl > 0 {
		late = math.Sqrt(sl / float64(nl))
	}
	return early, late
}
