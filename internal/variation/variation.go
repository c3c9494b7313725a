// Package variation provides Monte Carlo process-variation analysis on the
// device model: the non-Gaussian path-delay statistics of paper Figure 7
// (the "setup long tail" motivating separate early/late sigmas in LVF),
// generation of AOCV depth-derate tables and LVF per-arc sigma tables from
// Monte Carlo, and a transistor-level cross-check on the mini-SPICE
// substrate.
package variation

import (
	"math"
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/obs"
	"newgame/internal/spice"
	"newgame/internal/units"
	"newgame/internal/workpool"
)

// MCOpts tunes the Monte Carlo fan-out shared by this package's samplers.
// The zero value parallelizes across all CPUs with no recording; results
// are byte-identical for every Workers value (see stream.go).
type MCOpts struct {
	// Workers bounds the sample pool (0 = one per CPU, 1 = serial).
	Workers int
	// Obs, when set, records one span per worker lane.
	Obs *obs.Recorder
}

// PathMC samples the delay of an N-stage gate path where each stage's
// devices carry an independent Gaussian threshold shift. Because delay is
// convex in Vt (∝ 1/(V−Vt)^α), a symmetric Vt distribution produces a
// right-skewed delay distribution — exactly the asymmetry of Figure 7.
type PathMC struct {
	Tech liberty.TechParams
	PVT  liberty.PVT
	// Stages is the path depth.
	Stages int
	// VtSigma is the per-stage local threshold variation, volts.
	VtSigma units.Volt
	// LoadFF is the per-stage load, fF.
	LoadFF units.FF
	Seed   int64
	// Workers bounds the sample pool (0 = one per CPU, 1 = serial); the
	// sampled delays are identical either way.
	Workers int
}

// Default16 is a 16nm-class low-voltage path — the regime where the tail
// is most pronounced.
func Default16(stages int) PathMC {
	return PathMC{
		Tech:   liberty.Node16,
		PVT:    liberty.PVT{Process: liberty.TT, Voltage: 0.65, Temp: 25},
		Stages: stages, VtSigma: 0.025, LoadFF: 4, Seed: 7,
	}
}

// stageDelay evaluates one stage with threshold shift dvt.
func (p PathMC) stageDelay(dvt float64) units.Ps {
	pvt := p.PVT
	pvt.Voltage -= dvt // (V − (Vt+δ)) ≡ ((V−δ) − Vt)
	r := p.Tech.Req(liberty.SVT, 1, pvt) * (p.PVT.Voltage / math.Max(p.PVT.Voltage-dvt, 1e-9))
	if math.IsInf(r, 1) {
		// Device effectively off: delay dominated by subthreshold leakage;
		// cap at a large finite value so statistics stay defined.
		return 1e6
	}
	return 0.69 * r * (p.Tech.CparUnit + p.LoadFF)
}

// NominalDelay is the zero-variation path delay.
func (p PathMC) NominalDelay() units.Ps {
	return float64(p.Stages) * p.stageDelay(0)
}

// Run draws n Monte Carlo path delays. Sample i draws its per-stage Vt
// shifts from its own stream seeded by (Seed, i) — see stream.go — so the
// fan-out across Workers goroutines is bit-deterministic and prefix-stable.
func (p PathMC) Run(n int) []units.Ps {
	out := make([]float64, n)
	workpool.DoChunks(p.Workers, n, func(lo, hi, _ int) {
		smp := newSampler()
		for i := lo; i < hi; i++ {
			rng := smp.at(p.Seed, i)
			d := 0.0
			for s := 0; s < p.Stages; s++ {
				d += p.stageDelay(rng.NormFloat64() * p.VtSigma)
			}
			out[i] = d
		}
	})
	return out
}

// Stats summarizes a Monte Carlo sample in Figure-7 terms.
type Stats struct {
	Mean, Sigma units.Ps
	// SigmaEarly/SigmaLate are the one-sided deviations: the LVF split.
	SigmaEarly, SigmaLate units.Ps
	// Skewness > 0 is the setup long tail.
	Skewness float64
	// Q0001/Q9999 are far tail quantiles.
	Q0001, Q9999 units.Ps
}

// Summarize computes sample statistics (sorted copy; input untouched).
func Summarize(samples []units.Ps) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	st := Stats{
		Mean: units.Mean(xs), Sigma: units.Stddev(xs), Skewness: units.Skewness(xs),
		Q0001: units.Quantile(xs, 0.001), Q9999: units.Quantile(xs, 0.999),
	}
	st.SigmaEarly, st.SigmaLate = units.SemiStddev(xs)
	return st
}

// SpiceMC cross-checks the analytic Monte Carlo at transistor level: n
// samples of an inverter-chain delay with per-stage Vt shifts. Parallel
// across all CPUs; see SpiceMCOpts.
func SpiceMC(tech spice.Tech, stages, n int, vtSigma float64, seed int64) ([]units.Ps, error) {
	return SpiceMCOpts(tech, stages, n, vtSigma, seed, MCOpts{})
}

// SpiceMCOpts is SpiceMC with an explicit fan-out configuration. Each
// sample draws its Vt shifts from stream (seed, i) and simulates its own
// Circuit, so workers share nothing; per-sample results are reduced in
// index order (failed crossings dropped, the lowest-index simulation error
// reported), making the output independent of the worker count.
func SpiceMCOpts(tech spice.Tech, stages, n int, vtSigma float64, seed int64, opts MCOpts) ([]units.Ps, error) {
	delays := make([]float64, n)
	errs := make([]error, n)
	workpool.DoChunksObs(opts.Obs, nil, "variation.spicemc", opts.Workers, n, func(lo, hi, _ int) {
		smp := newSampler()
		for i := lo; i < hi; i++ {
			rng := smp.at(seed, i)
			b := spice.NewBuilder(tech)
			b.C.V("in", spice.Ground, spice.Ramp(0, tech.VDD, 100, 30))
			dvt := make([]float64, stages)
			for s := range dvt {
				dvt[s] = rng.NormFloat64() * vtSigma
			}
			outNode := b.InverterChain("in", stages, dvt)
			b.C.C(outNode, spice.Ground, 3*tech.CgPerW)
			res, err := b.C.Transient(spice.TranOpts{Stop: 100 + float64(stages)*60 + 200, Step: 0.5})
			if err != nil {
				errs[i] = err
				continue
			}
			half := tech.VDD / 2
			tIn := res.Cross("in", half, true, 90)
			rising := stages%2 == 0
			tOut := res.Cross(outNode, half, rising, 90)
			if math.IsNaN(tOut) {
				delays[i] = math.NaN()
				continue
			}
			delays[i] = tOut - tIn
		}
	})
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if !math.IsNaN(delays[i]) {
			out = append(out, delays[i])
		}
	}
	return out, nil
}
