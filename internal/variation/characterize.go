package variation

import (
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/units"
	"newgame/internal/workpool"
)

// CharacterizeLVF fills the LVF sigma tables (early and late, rise and
// fall) of every arc in the library from Monte Carlo over the device
// threshold: for each cell, the distribution of the delay ratio under Vt
// variation is sampled once, and its one-sided deviations scale the arc's
// nominal delay tables. This realizes the paper's §3.1 trajectory — LVF's
// "one number per load-slew combination per cell", with separate late
// (setup) and early (hold) sigmas capturing the non-Gaussian asymmetry.
//
// The ratio approach is exact for the RC-dominated part of the generator's
// delay model (delay ∝ Req(Vt)) and slightly conservative for the
// slew-driven part.
//
// Samples fan out across all CPUs; see CharacterizeLVFOpts.
func CharacterizeLVF(lib *liberty.Library, vtSigma units.Volt, samples int, seed int64) {
	CharacterizeLVFOpts(lib, vtSigma, samples, seed, MCOpts{})
}

// CharacterizeLVFOpts is CharacterizeLVF with an explicit fan-out
// configuration. Sample i of Vt class k draws from the nested stream
// (streamSeed(seed, k), i) — see stream.go — and writes only ratios[i];
// the spread reduction then runs serially in index order, so the sigma
// tables are byte-identical for every worker count and stable under
// increasing the sample count.
func CharacterizeLVFOpts(lib *liberty.Library, vtSigma units.Volt, samples int, seed int64, opts MCOpts) {
	// Cache the ratio spread per Vt class (device-level property).
	type spread struct{ early, late float64 }
	cache := map[liberty.VtClass]spread{}
	for vtIdx, vt := range liberty.VtClasses {
		base := lib.Tech.Req(vt, 1, lib.PVT)
		vtSeed := streamSeed(seed, vtIdx)
		ratios := make([]float64, samples)
		workpool.DoChunksObs(opts.Obs, nil, "variation.lvf."+vt.String(), opts.Workers, samples,
			func(lo, hi, _ int) {
				smp := newSampler()
				for i := lo; i < hi; i++ {
					dvt := smp.at(vtSeed, i).NormFloat64() * vtSigma
					pvt := lib.PVT
					pvt.Voltage -= dvt
					r := lib.Tech.Req(vt, 1, pvt) * (lib.PVT.Voltage / (lib.PVT.Voltage - dvt))
					ratios[i] = r / base
				}
			})
		early, late := units.SemiStddev(ratios)
		cache[vt] = spread{early, late}
	}
	names := make([]string, 0, len(lib.Cells()))
	for n := range lib.Cells() {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := lib.Cell(n)
		s := cache[c.Vt]
		for i := range c.Arcs {
			a := &c.Arcs[i]
			a.SigmaEarlyRise = a.DelayRise.Scale(s.early)
			a.SigmaEarlyFall = a.DelayFall.Scale(s.early)
			a.SigmaLateRise = a.DelayRise.Scale(s.late)
			a.SigmaLateFall = a.DelayFall.Scale(s.late)
			// POCV's single symmetric number: the pooled sigma.
			pooled := (s.early + s.late) / 2
			a.SigmaRise = a.DelayRise.Scale(pooled)
			a.SigmaFall = a.DelayFall.Scale(pooled)
		}
	}
}

// GenerateAOCV builds depth-indexed late/early derate tables from Monte
// Carlo path statistics: derate(d) = (mean ± nσ·σ)/nominal for a path of
// depth d. Deep paths average out local variation (the √d shrinkage AOCV
// banks on).
//
// Depths characterize in parallel — each already has its own seed
// (base.Seed + depth), so each measured point depends only on its depth;
// within a depth the samples run serially to keep the pool flat.
func GenerateAOCV(base PathMC, depths []int, samples int, nSigma float64) (lateTab, earlyTab []float64) {
	maxD := 0
	for _, d := range depths {
		if d > maxD {
			maxD = d
		}
	}
	lateTab = make([]float64, maxD)
	earlyTab = make([]float64, maxD)
	// Fill every depth up to max by interpolating over the measured set.
	type meas struct{ late, early float64 }
	measured := make([]meas, len(depths))
	workpool.Do(base.Workers, len(depths), func(i int) {
		p := base
		p.Stages = depths[i]
		p.Seed = base.Seed + int64(depths[i])
		p.Workers = 1
		st := Summarize(p.Run(samples))
		nom := p.NominalDelay()
		measured[i] = meas{
			late:  (st.Mean + nSigma*st.SigmaLate) / nom,
			early: (st.Mean - nSigma*st.SigmaEarly) / nom,
		}
	})
	measL := map[int]float64{}
	measE := map[int]float64{}
	for i, d := range depths {
		measL[d] = measured[i].late
		measE[d] = measured[i].early
	}
	sort.Ints(depths)
	for d := 1; d <= maxD; d++ {
		lateTab[d-1] = interpDepth(measL, depths, d)
		earlyTab[d-1] = interpDepth(measE, depths, d)
	}
	return lateTab, earlyTab
}

func interpDepth(meas map[int]float64, depths []int, d int) float64 {
	if v, ok := meas[d]; ok {
		return v
	}
	// Linear between bracketing measured depths; clamp at ends.
	prev, next := depths[0], depths[len(depths)-1]
	for _, dd := range depths {
		if dd <= d {
			prev = dd
		}
		if dd >= d {
			next = dd
			break
		}
	}
	if prev == next {
		return meas[prev]
	}
	f := float64(d-prev) / float64(next-prev)
	return meas[prev] + (meas[next]-meas[prev])*f
}
