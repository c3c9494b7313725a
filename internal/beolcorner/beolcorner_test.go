package beolcorner

import (
	"math"
	"testing"

	"newgame/internal/parasitics"
)

func analysis() Analysis {
	return Analysis{Stack: parasitics.Stack16(), NSigma: 3, Samples: 1500, Seed: 8}
}

func TestPathDelayRespondsToCorners(t *testing.T) {
	st := parasitics.Stack16()
	p := &Path{
		Name: "p", GateDelay: 30,
		Wires: []WireSeg{{Tree: parasitics.PointToPoint(st, 2, 150, 0.45), CapSens: 0.15}},
	}
	typ := p.Delay(st.Corner(parasitics.Typical, 0))
	rcw := p.Delay(st.Corner(parasitics.RCWorst, 3))
	if rcw <= typ {
		t.Errorf("RCw delay %v not above typical %v", rcw, typ)
	}
}

func TestAlphaBelowOneForMostPaths(t *testing.T) {
	// The CBC pessimism claim: for most paths the statistical 3σ increment
	// is well below the all-layers-worst corner increment, i.e. α < 1.
	an := analysis()
	paths := GeneratePaths(an.Stack, 60, 4)
	stats := an.Evaluate(paths)
	below := 0
	for _, s := range stats {
		alpha := math.Min(s.AlphaCw, s.AlphaRCw)
		if alpha < 1 {
			below++
		}
		if s.Stat <= 0 {
			t.Errorf("%s: non-positive statistical increment %v", s.Name, s.Stat)
		}
	}
	if frac := float64(below) / float64(len(stats)); frac < 0.7 {
		t.Errorf("only %.0f%% of paths show CBC pessimism (α<1); expected most", frac*100)
	}
}

func TestCornerDominanceVariesAcrossPaths(t *testing.T) {
	// Figure 8's core point: some paths are Cw-dominated, others
	// RCw-dominated — so both corners are required.
	an := analysis()
	paths := GeneratePaths(an.Stack, 60, 4)
	stats := an.Evaluate(paths)
	cwDominated, rcwDominated := 0, 0
	for _, s := range stats {
		if s.DeltaCw > s.DeltaRCw {
			cwDominated++
		} else {
			rcwDominated++
		}
	}
	if cwDominated == 0 || rcwDominated == 0 {
		t.Errorf("corner dominance is one-sided (Cw %d, RCw %d); Figure 8 needs both",
			cwDominated, rcwDominated)
	}
}

func TestClassifyTBCSelectsSmallDeltaPaths(t *testing.T) {
	an := analysis()
	paths := GeneratePaths(an.Stack, 60, 4)
	stats := an.Evaluate(paths)
	safe := ClassifyTBC(stats, 0.07, 0.07)
	nSafe := 0
	for i, ok := range safe {
		if ok {
			nSafe++
			if stats[i].DeltaRelCw() > 0.07 || stats[i].DeltaRelRCw() > 0.07 {
				t.Errorf("%s classified safe with large deltas", stats[i].Name)
			}
		}
	}
	if nSafe == 0 {
		t.Error("no path classified TBC-safe; gate-dominated paths should qualify")
	}
	if nSafe == len(safe) {
		t.Error("every path classified safe; wire-dominated paths should not qualify")
	}
}

func TestSignoffTBCReducesViolationsWithoutEscapes(t *testing.T) {
	an := analysis()
	paths := GeneratePaths(an.Stack, 80, 4)
	stats := an.Evaluate(paths)
	safe := ClassifyTBC(stats, 0.07, 0.07)
	// Endgame-style requirements: slack spread around zero at the
	// conventional corner, so pessimism decides who lands in the report.
	req := make([]float64, len(paths))
	for i, s := range stats {
		u := float64((i*2654435761)%1000) / 1000
		d := math.Max(s.DeltaCw, s.DeltaRCw)
		req[i] = s.Nominal + d + (-0.35+0.50*u)*d
	}
	tighten := CalibrateTighten(stats, safe)
	if tighten <= 0 || tighten > 1 {
		t.Fatalf("calibrated tighten = %v", tighten)
	}
	out := Signoff(an, paths, stats, safe, req, tighten)
	if out.CBCViolations == 0 {
		t.Fatal("test setup produced no CBC violations; cannot measure reduction")
	}
	if out.TBCViolations >= out.CBCViolations {
		t.Errorf("TBC (%d) did not reduce violations vs CBC (%d)", out.TBCViolations, out.CBCViolations)
	}
	if out.Escapes != 0 {
		t.Errorf("%d material statistical escapes under TBC signoff; recipe unsafe", out.Escapes)
	}
	// Any residual shortfall on TBC-passed paths must be negligible in
	// absolute terms (that is the paper's safety argument for tightening
	// exactly the BEOL-insensitive population).
	if out.MaxEscape > 2.0 {
		t.Errorf("max escape magnitude %.2f ps; should be negligible", out.MaxEscape)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	an := analysis()
	paths := GeneratePaths(an.Stack, 10, 4)
	s1 := an.Evaluate(paths)
	s2 := an.Evaluate(paths)
	for i := range s1 {
		if s1[i].Stat != s2[i].Stat || s1[i].DeltaCw != s2[i].DeltaCw {
			t.Fatalf("evaluation not deterministic at %d", i)
		}
	}
}
