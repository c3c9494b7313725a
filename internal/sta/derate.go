package sta

import (
	"fmt"
	"math"

	"newgame/internal/liberty"
)

// DelayKind distinguishes cell from net delays for derating purposes.
type DelayKind int

const (
	CellDelay DelayKind = iota
	NetDelay
)

// Derater is the pluggable on-chip-variation model — the modeling
// trajectory of paper §3.1 ("k-factor PVT derating, TLF and Liberty NLDM
// tables … AOCV, POCV and LVF").
//
// Factor returns a multiplicative derate on a delay; Sigma returns the
// additional standard deviation the delay contributes to its path (zero for
// purely multiplicative schemes). Statistical deraters return Factor 1 and
// carry the variation entirely in Sigma; endpoint slacks then use mean ±
// NSigma·σ.
type Derater interface {
	// Factor derates one delay. depth is the stage count accumulated along
	// the worst path into this arc (AOCV's lookup key).
	Factor(kind DelayKind, clockPath, late bool, depth int) float64
	// Sigma returns the 1σ delay variation of a cell arc evaluated at
	// (slew, load) with nominal delay d. Net delays are handled by BEOL
	// corner scaling, not here.
	Sigma(arc *liberty.TimingArc, outRise, late bool, slew, load, d float64) float64
	// NSigma is the sigma multiple applied at endpoints (3 is customary).
	NSigma() float64
}

// NoDerate is the pre-OCV world: nominal delays everywhere.
type NoDerate struct{}

// Factor returns 1.
func (NoDerate) Factor(DelayKind, bool, bool, int) float64 { return 1 }

// Sigma returns 0.
func (NoDerate) Sigma(*liberty.TimingArc, bool, bool, float64, float64, float64) float64 { return 0 }

// NSigma returns 0.
func (NoDerate) NSigma() float64 { return 0 }

// FlatOCV is the classic flat derate: every late cell delay up by CellLate,
// every early cell delay down by CellEarly, likewise for nets. Depth- and
// structure-blind — maximally pessimistic for deep paths.
type FlatOCV struct {
	CellLate, CellEarly float64 // e.g. 1.08, 0.92
	NetLate, NetEarly   float64
}

// DefaultFlatOCV is a typical ±8% cell / ±4% net flat recipe.
func DefaultFlatOCV() FlatOCV {
	return FlatOCV{CellLate: 1.08, CellEarly: 0.92, NetLate: 1.04, NetEarly: 0.96}
}

// Factor applies the flat derate.
func (f FlatOCV) Factor(kind DelayKind, clockPath, late bool, depth int) float64 {
	if kind == NetDelay {
		if late {
			return f.NetLate
		}
		return f.NetEarly
	}
	if late {
		return f.CellLate
	}
	return f.CellEarly
}

// Sigma returns 0 (flat OCV is purely multiplicative).
func (FlatOCV) Sigma(*liberty.TimingArc, bool, bool, float64, float64, float64) float64 { return 0 }

// NSigma returns 0.
func (FlatOCV) NSigma() float64 { return 0 }

// AOCV is advanced OCV: the derate shrinks with path depth (statistical
// averaging over more stages — paper §3.1: "extreme variations are assumed
// to be less when paths have more stages"). Mainstream since the 40nm node.
type AOCV struct {
	// LateByDepth[d] / EarlyByDepth[d] are derates for a path of depth d+1;
	// the last entry covers all deeper paths.
	LateByDepth, EarlyByDepth []float64
	NetLate, NetEarly         float64
}

// DefaultAOCV builds a table equivalent to a σ=4%-per-stage budget at 3σ:
// depth-1 paths see ±12%, deep paths converge toward ±12%/√depth.
func DefaultAOCV() AOCV {
	var late, early []float64
	for d := 1; d <= 16; d++ {
		derate := 0.12 / math.Sqrt(float64(d))
		late = append(late, 1+derate)
		early = append(early, 1-derate)
	}
	return AOCV{LateByDepth: late, EarlyByDepth: early, NetLate: 1.04, NetEarly: 0.96}
}

// Factor looks up the depth-dependent derate.
func (a AOCV) Factor(kind DelayKind, clockPath, late bool, depth int) float64 {
	if kind == NetDelay {
		if late {
			return a.NetLate
		}
		return a.NetEarly
	}
	tab := a.LateByDepth
	if !late {
		tab = a.EarlyByDepth
	}
	if len(tab) == 0 {
		return 1
	}
	i := depth - 1
	if i < 0 {
		i = 0
	}
	if i >= len(tab) {
		i = len(tab) - 1
	}
	return tab[i]
}

// Sigma returns 0.
func (AOCV) Sigma(*liberty.TimingArc, bool, bool, float64, float64, float64) float64 { return 0 }

// NSigma returns 0.
func (AOCV) NSigma() float64 { return 0 }

// POCV is parametric OCV: "one number per cell" — each cell delay
// contributes sigma = SigmaFrac·delay, accumulated in quadrature along the
// path (no stage counts needed; paper §3.1).
type POCV struct {
	// SigmaFrac is the per-stage relative sigma (e.g. 0.04).
	SigmaFrac float64
	// N is the endpoint sigma multiple (3σ customary).
	N float64
}

// DefaultPOCV is a 4%-per-stage, 3σ recipe.
func DefaultPOCV() POCV { return POCV{SigmaFrac: 0.04, N: 3} }

// Factor returns 1 (variation carried in Sigma).
func (POCV) Factor(DelayKind, bool, bool, int) float64 { return 1 }

// Sigma returns the proportional per-arc sigma.
func (p POCV) Sigma(arc *liberty.TimingArc, outRise, late bool, slew, load, d float64) float64 {
	return p.SigmaFrac * d
}

// NSigma returns the endpoint multiple.
func (p POCV) NSigma() float64 { return p.N }

// LVF reads slew/load-dependent, early/late-separated sigma tables from the
// library arcs ("one number per load-slew combination per cell", with
// distinct late/early σ to capture the non-Gaussian setup long tail of
// paper Figure 7). Arcs lacking tables fall back to Fallback·delay.
type LVF struct {
	N        float64
	Fallback float64
}

// DefaultLVF is a 3σ LVF recipe with a 4% fallback.
func DefaultLVF() LVF { return LVF{N: 3, Fallback: 0.04} }

// Factor returns 1.
func (LVF) Factor(DelayKind, bool, bool, int) float64 { return 1 }

// Sigma reads the arc's LVF tables.
func (l LVF) Sigma(arc *liberty.TimingArc, outRise, late bool, slew, load, d float64) float64 {
	var tb *liberty.Table2D
	switch {
	case late && outRise:
		tb = arc.SigmaLateRise
	case late && !outRise:
		tb = arc.SigmaLateFall
	case !late && outRise:
		tb = arc.SigmaEarlyRise
	default:
		tb = arc.SigmaEarlyFall
	}
	if tb == nil {
		return l.Fallback * d
	}
	return tb.Lookup(slew, load)
}

// NSigma returns the endpoint multiple.
func (l LVF) NSigma() float64 { return l.N }

// checkDerate refuses a derater of one of this package's models that no
// delay could be derated by: a FlatOCV or AOCV factor (depth-table entries
// and net factors included) that is not a positive finite number, or a
// POCV or LVF sigma term (fraction, multiple, fallback) that is not a
// non-negative finite one. Other Derater implementations pass through.
func checkDerate(d Derater) error {
	var factors, sigmas []float64
	switch v := d.(type) {
	case FlatOCV:
		factors = []float64{v.CellLate, v.CellEarly, v.NetLate, v.NetEarly}
	case AOCV:
		factors = append(append([]float64{v.NetLate, v.NetEarly}, v.LateByDepth...), v.EarlyByDepth...)
	case POCV:
		sigmas = []float64{v.SigmaFrac, v.N}
	case LVF:
		sigmas = []float64{v.N, v.Fallback}
	}
	for _, f := range factors {
		if !(f > 0) || math.IsInf(f, 1) {
			return fmt.Errorf("sta: %T derate factor %v is not a positive finite number", d, f)
		}
	}
	for _, s := range sigmas {
		if !(s >= 0) || math.IsInf(s, 1) {
			return fmt.Errorf("sta: %T sigma term %v is not a non-negative finite number", d, s)
		}
	}
	return nil
}
