package spice

import "sort"

// Waveform is a voltage as a function of time (ps → V).
type Waveform interface {
	At(t float64) float64
}

// DC is a constant voltage.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// PWL is a piecewise-linear waveform through (T[i], V[i]) points; constant
// before the first and after the last point.
type PWL struct {
	T, V []float64
}

// At evaluates the waveform.
func (p PWL) At(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	if t >= p.T[n-1] {
		return p.V[n-1]
	}
	i := sort.SearchFloat64s(p.T, t)
	// p.T[i-1] < t <= p.T[i]
	t0, t1 := p.T[i-1], p.T[i]
	v0, v1 := p.V[i-1], p.V[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// lastBreakpoint reports the time after which the waveform is constant,
// for the known implementations. The second result is false for waveform
// types it cannot see inside — Transient then disables early exit.
func lastBreakpoint(w Waveform) (float64, bool) {
	switch v := w.(type) {
	case DC:
		return 0, true
	case PWL:
		if len(v.T) == 0 {
			return 0, true
		}
		return v.T[len(v.T)-1], true
	case *PWL:
		if len(v.T) == 0 {
			return 0, true
		}
		return v.T[len(v.T)-1], true
	}
	return 0, false
}

// Ramp builds a single transition: v0 until start, then a linear ramp of
// the given transition time to v1.
func Ramp(v0, v1, start, trans float64) PWL {
	return PWL{T: []float64{start, start + trans}, V: []float64{v0, v1}}
}

// Pulse builds a v0→v1→v0 pulse: rise begins at start, the output holds v1
// for width, and edges take trans.
func Pulse(v0, v1, start, width, trans float64) PWL {
	return PWL{
		T: []float64{start, start + trans, start + trans + width, start + 2*trans + width},
		V: []float64{v0, v1, v1, v0},
	}
}
