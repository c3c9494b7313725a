package parasitics

import (
	"fmt"
	"math"
	"math/rand"

	"newgame/internal/units"
)

// Layer describes one metal layer of a BEOL stack.
type Layer struct {
	Name string
	// RPerUm is resistance per micron at drawn width, kΩ/µm.
	RPerUm units.KOhm
	// CPerUm is grounded capacitance per micron, fF/µm.
	CPerUm units.FF
	// CcPerUm is coupling capacitance per micron to minimum-spaced
	// neighbors, fF/µm.
	CcPerUm units.FF
	// MultiPatterned marks layers printed with double/quadruple patterning;
	// each such layer contributes its own C-corner axes to the corner
	// explosion (paper §2.3: "Cw, Ccw, Cb, RCw ... per each double-
	// patterned layer").
	MultiPatterned bool
	// RSigma/CSigma/CcSigma are relative 1σ process variations of the
	// layer's R and C, driven by CD and thickness control (SADP layers are
	// worse; see sadp.go).
	RSigma, CSigma, CcSigma float64
	// MinWidthUm is the drawn minimum wire width, µm (sets the
	// electromigration current capacity of a default-rule route).
	MinWidthUm float64
	// JMaxPerUm is the electromigration RMS current limit per micron of
	// wire width at reference temperature, mA/µm.
	JMaxPerUm float64
}

// Stack is a BEOL metal stack, bottom-up (index 0 = M1).
type Stack struct {
	Name   string
	Layers []Layer
}

// Stack16 is a 16nm-class stack: resistive, heavily multi-patterned lower
// layers ("the rise of the MOL and BEOL", paper §1.3).
func Stack16() *Stack {
	return &Stack{
		Name: "beol16",
		Layers: []Layer{
			{Name: "M1", RPerUm: 0.032, CPerUm: 0.21, CcPerUm: 0.14, MultiPatterned: true, RSigma: 0.10, CSigma: 0.065, CcSigma: 0.11, MinWidthUm: 0.024, JMaxPerUm: 1.2},
			{Name: "M2", RPerUm: 0.026, CPerUm: 0.20, CcPerUm: 0.13, MultiPatterned: true, RSigma: 0.095, CSigma: 0.060, CcSigma: 0.105, MinWidthUm: 0.028, JMaxPerUm: 1.3},
			{Name: "M3", RPerUm: 0.020, CPerUm: 0.19, CcPerUm: 0.12, MultiPatterned: true, RSigma: 0.09, CSigma: 0.055, CcSigma: 0.10, MinWidthUm: 0.032, JMaxPerUm: 1.4},
			{Name: "M4", RPerUm: 0.0085, CPerUm: 0.18, CcPerUm: 0.10, MultiPatterned: false, RSigma: 0.06, CSigma: 0.045, CcSigma: 0.08, MinWidthUm: 0.06, JMaxPerUm: 1.8},
			{Name: "M5", RPerUm: 0.0032, CPerUm: 0.17, CcPerUm: 0.09, MultiPatterned: false, RSigma: 0.05, CSigma: 0.040, CcSigma: 0.07, MinWidthUm: 0.12, JMaxPerUm: 2.6},
			{Name: "M6", RPerUm: 0.0011, CPerUm: 0.17, CcPerUm: 0.08, MultiPatterned: false, RSigma: 0.045, CSigma: 0.035, CcSigma: 0.06, MinWidthUm: 0.30, JMaxPerUm: 4.0},
		},
	}
}

// Stack65 is a 65nm-class stack: far less resistive, no multi-patterning.
func Stack65() *Stack {
	return &Stack{
		Name: "beol65",
		Layers: []Layer{
			{Name: "M1", RPerUm: 0.0019, CPerUm: 0.20, CcPerUm: 0.09, RSigma: 0.05, CSigma: 0.04, CcSigma: 0.06, MinWidthUm: 0.09, JMaxPerUm: 2.0},
			{Name: "M2", RPerUm: 0.0016, CPerUm: 0.19, CcPerUm: 0.08, RSigma: 0.05, CSigma: 0.04, CcSigma: 0.06, MinWidthUm: 0.10, JMaxPerUm: 2.1},
			{Name: "M3", RPerUm: 0.0013, CPerUm: 0.19, CcPerUm: 0.08, RSigma: 0.045, CSigma: 0.035, CcSigma: 0.055, MinWidthUm: 0.10, JMaxPerUm: 2.2},
			{Name: "M4", RPerUm: 0.0007, CPerUm: 0.18, CcPerUm: 0.07, RSigma: 0.04, CSigma: 0.03, CcSigma: 0.05, MinWidthUm: 0.14, JMaxPerUm: 2.8},
			{Name: "M5", RPerUm: 0.0002, CPerUm: 0.17, CcPerUm: 0.06, RSigma: 0.035, CSigma: 0.03, CcSigma: 0.045, MinWidthUm: 0.40, JMaxPerUm: 5.0},
		},
	}
}

// CornerKind enumerates the conventional BEOL corners (CBCs) of paper §3.2.
type CornerKind int

const (
	Typical CornerKind = iota
	CWorst             // max ground C (R relaxes: wide wires)
	CBest
	RCWorst // max R·C product (thin, tall spacing effects)
	RCBest
	CcWorst // max coupling
	CcBest
)

var cornerNames = map[CornerKind]string{
	Typical: "typ", CWorst: "Cw", CBest: "Cb",
	RCWorst: "RCw", RCBest: "RCb", CcWorst: "Ccw", CcBest: "Ccb",
}

func (k CornerKind) String() string { return cornerNames[k] }

// AllCorners lists the conventional corners (excluding typical).
var AllCorners = []CornerKind{CWorst, CBest, RCWorst, RCBest, CcWorst, CcBest}

// Per-layer variation is driven by three independent standard-normal
// physical parameters: line width w (anti-correlates R with C and Cc), a
// resistance-side thickness tr (barrier/height), and a capacitance-side
// thickness tc (dielectric/height). The loading matrix below is shared by
// SampleScaling (Monte Carlo) and Corner (worst-case directions), so that a
// conventional corner is exactly the nσ point of the underlying parameter
// distribution that is worst for that corner's objective.
func layerScales(l Layer, w, tr, tc float64) (r, c, cc float64) {
	r = 1 + 0.7*l.RSigma*(tr-w)
	c = 1 + 0.7*l.CSigma*(w+tc)
	cc = 1 + l.CcSigma*(0.85*w+0.5*tc)
	return r, c, cc
}

// Corner returns the per-layer Scaling of a conventional BEOL corner at the
// given sigma count. Each corner is the nσ-radius parameter point that
// maximizes (worst) or minimizes (best) its objective: total ground cap for
// Cw/Cb, coupling cap for Ccw/Ccb, and the R+C sum (log of the RC product)
// for RCw/RCb. CBCs set *every* layer simultaneously to its corner — the
// source of the pessimism the tightened-corner methodology attacks (paper
// §3.2): real per-layer variations are not fully correlated across layers.
func (s *Stack) Corner(kind CornerKind, nSigma float64) *Scaling {
	sc := Uniform(len(s.Layers), 1, 1, 1)
	for i, l := range s.Layers {
		var gw, gtr, gtc float64 // objective gradient in (w, tr, tc)
		sign := 1.0
		switch kind {
		case Typical:
			continue
		case CBest:
			sign = -1
			fallthrough
		case CWorst:
			gw, gtc = 0.7*l.CSigma, 0.7*l.CSigma
		case CcBest:
			sign = -1
			fallthrough
		case CcWorst:
			gw, gtc = 0.85*l.CcSigma, 0.5*l.CcSigma
		case RCBest:
			sign = -1
			fallthrough
		case RCWorst:
			gw = 0.7 * (l.CSigma - l.RSigma)
			gtr = 0.7 * l.RSigma
			gtc = 0.7 * l.CSigma
		}
		norm := math.Sqrt(gw*gw + gtr*gtr + gtc*gtc)
		if norm == 0 {
			continue
		}
		// Foundry corners carry a small guardband over the pure nσ point;
		// it also covers the second-order (R·C product) term the linear
		// objective direction misses.
		const guard = 1.06
		k := sign * nSigma * guard / norm
		sc.R[i], sc.C[i], sc.Cc[i] = layerScales(l, k*gw, k*gtr, k*gtc)
	}
	return sc
}

// TightenedCorner returns a tightened BEOL corner (TBC, paper §3.2 / Fig 8):
// the same corner direction but at a reduced effective sigma, justified for
// paths whose per-layer variations statistically average out.
func (s *Stack) TightenedCorner(kind CornerKind, nSigma, tighten float64) *Scaling {
	return s.Corner(kind, nSigma*tighten)
}

// SampleScaling draws one Monte Carlo BEOL condition: an independent
// Gaussian R and C perturbation per layer (global within the layer, as
// die-to-die BEOL variation is). This is the statistical reference against
// which CBC pessimism is measured in the Figure 8 experiment.
func (s *Stack) SampleScaling(rng *rand.Rand) *Scaling {
	sc := Uniform(len(s.Layers), 1, 1, 1)
	for i, l := range s.Layers {
		// Same loading matrix as Corner: anti-correlated R and C through
		// width, independent thickness terms.
		sc.R[i], sc.C[i], sc.Cc[i] = layerScales(l,
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if sc.R[i] < 0.5 {
			sc.R[i] = 0.5
		}
		if sc.C[i] < 0.5 {
			sc.C[i] = 0.5
		}
		if sc.Cc[i] < 0.3 {
			sc.Cc[i] = 0.3
		}
	}
	return sc
}

// MaskShiftCombos returns the number of mask-shift combinations BEOL
// signoff must cover on top of the corner set: each multi-patterned layer
// doubles the C-corner choices (mask A/B shift direction) — paper §2.3's
// "combinatorial explosion".
func (s *Stack) MaskShiftCombos() int {
	n := 1
	for _, l := range s.Layers {
		if l.MultiPatterned {
			n *= 2
		}
	}
	return n
}

// Validate reports whether nets can be routed on the stack: the synthesis
// rule puts taps on layer 0 and short nets on layer 1, so it needs at least
// two layers, and every per-µm R, C and Cc and every sigma must be finite and
// non-negative.
func (s *Stack) Validate() error {
	if len(s.Layers) < 2 {
		return fmt.Errorf("parasitics: stack %s has %d layers, want at least 2", s.Name, len(s.Layers))
	}
	for _, l := range s.Layers {
		for _, v := range [...]float64{float64(l.RPerUm), float64(l.CPerUm), float64(l.CcPerUm), l.RSigma, l.CSigma, l.CcSigma} {
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("parasitics: layer %s of stack %s has a per-µm R, C or Cc or a sigma of %v", l.Name, s.Name, v)
			}
		}
	}
	return nil
}

// Layer returns the index of the named layer, or an error.
func (s *Stack) LayerIndex(name string) (int, error) {
	for i, l := range s.Layers {
		if l.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("parasitics: no layer %q in stack %s", name, s.Name)
}

// WireRC returns the nominal R (kΩ) and C (fF) of length µm of wire on the
// given layer.
func (s *Stack) WireRC(layer int, length units.Um) (units.KOhm, units.FF) {
	l := s.Layers[layer]
	return l.RPerUm * length, l.CPerUm * length
}
