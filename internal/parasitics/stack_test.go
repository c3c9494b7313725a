package parasitics

import (
	"math"
	"math/rand"
	"testing"
)

func TestStackLayerLookup(t *testing.T) {
	st := Stack16()
	i, err := st.LayerIndex("M3")
	if err != nil || st.Layers[i].Name != "M3" {
		t.Fatalf("LayerIndex(M3) = %d, %v", i, err)
	}
	if _, err := st.LayerIndex("M99"); err == nil {
		t.Error("bogus layer accepted")
	}
	r, c := st.WireRC(i, 100)
	if r <= 0 || c <= 0 {
		t.Errorf("WireRC = %v, %v", r, c)
	}
}

func TestLowerLayersMoreResistive(t *testing.T) {
	for _, st := range []*Stack{Stack16(), Stack65()} {
		for i := 1; i < len(st.Layers); i++ {
			if st.Layers[i].RPerUm > st.Layers[i-1].RPerUm {
				t.Errorf("%s: layer %s more resistive than %s", st.Name, st.Layers[i].Name, st.Layers[i-1].Name)
			}
		}
	}
}

func TestAdvancedNodeMoreResistive(t *testing.T) {
	// "Rise of the BEOL": 16nm M2 must be far more resistive than 65nm M2.
	r16 := Stack16().Layers[1].RPerUm
	r65 := Stack65().Layers[1].RPerUm
	if r16 < 3*r65 {
		t.Errorf("16nm M2 R/µm (%v) should dwarf 65nm (%v)", r16, r65)
	}
}

func TestCornerDirections(t *testing.T) {
	st := Stack16()
	wire := PointToPoint(st, 2, 200, 0.4)
	typElm := wire.Elmore(st.Corner(Typical, 3))[0]
	typCap := wire.TotalCapM(st.Corner(Typical, 3), MillerFactor)
	// RC-worst/best bound the wire's own delay.
	if d := wire.Elmore(st.Corner(RCWorst, 3))[0]; d <= typElm {
		t.Errorf("RCw Elmore %v not slower than typ %v", d, typElm)
	}
	if d := wire.Elmore(st.Corner(RCBest, 3))[0]; d >= typElm {
		t.Errorf("RCb Elmore %v not faster than typ %v", d, typElm)
	}
	// C-worst/best bound the driver load (total cap); note C-worst means a
	// *wider* wire, whose lower R can make the wire's own Elmore faster —
	// the anti-correlation behind Figure 8's per-path corner dominance.
	for _, k := range []CornerKind{CWorst, CcWorst} {
		if c := wire.TotalCapM(st.Corner(k, 3), MillerFactor); c <= typCap {
			t.Errorf("%v TotalCap %v not larger than typ %v", k, c, typCap)
		}
	}
	for _, k := range []CornerKind{CBest, CcBest} {
		if c := wire.TotalCapM(st.Corner(k, 3), MillerFactor); c >= typCap {
			t.Errorf("%v TotalCap %v not smaller than typ %v", k, c, typCap)
		}
	}
}

func TestRCWorstDominatesForResistiveNets(t *testing.T) {
	// A long resistive wire should be hurt more by RCw than Cw; a short
	// capacitive load (driver-dominated, modeled as total cap) more by Cw.
	st := Stack16()
	long := PointToPoint(st, 1, 400, 0.4)
	dCw := long.Elmore(st.Corner(CWorst, 3))[0]
	dRCw := long.Elmore(st.Corner(RCWorst, 3))[0]
	if dRCw <= dCw {
		t.Errorf("long wire: RCw (%v) should exceed Cw (%v)", dRCw, dCw)
	}
	// Total cap, the part a gate-dominated path cares about, is worst at Cw.
	cCw := long.TotalCapM(st.Corner(CWorst, 3), MillerFactor)
	cRCw := long.TotalCapM(st.Corner(RCWorst, 3), MillerFactor)
	if cCw <= cRCw {
		t.Errorf("Cw total cap (%v) should exceed RCw (%v)", cCw, cRCw)
	}
}

func TestTightenedCornerBetweenTypAndFull(t *testing.T) {
	st := Stack16()
	wire := PointToPoint(st, 2, 200, 0.4)
	typ := wire.Elmore(nil)[0]
	full := wire.Elmore(st.Corner(RCWorst, 3))[0]
	tight := wire.Elmore(st.TightenedCorner(RCWorst, 3, 0.6))[0]
	if !(typ < tight && tight < full) {
		t.Errorf("tightened corner %v not between typ %v and full %v", tight, typ, full)
	}
}

func TestSampleScalingStatistics(t *testing.T) {
	st := Stack16()
	rng := rand.New(rand.NewSource(7))
	wire := PointToPoint(st, 2, 200, 0.4)
	n := 4000
	var sum, sumSq float64
	full := wire.Elmore(st.Corner(RCWorst, 3))[0]
	exceed := 0
	for i := 0; i < n; i++ {
		d := wire.Elmore(st.SampleScaling(rng))[0]
		sum += d
		sumSq += d * d
		if d > full {
			exceed++
		}
	}
	mean := sum / float64(n)
	sigma := math.Sqrt(sumSq/float64(n) - mean*mean)
	typ := wire.Elmore(nil)[0]
	if math.Abs(mean-typ) > 0.1*typ {
		t.Errorf("MC mean %v far from typical %v", mean, typ)
	}
	// Statistical 3σ should be inside the all-layers-worst corner most of
	// the time — the CBC pessimism the TBC methodology exploits.
	if mean+3*sigma >= full {
		t.Errorf("mean+3σ (%v) should be below all-worst corner (%v)", mean+3*sigma, full)
	}
	if frac := float64(exceed) / float64(n); frac > 0.01 {
		t.Errorf("%.2f%% of MC samples exceed the RCw corner; CBC should cover ~all", frac*100)
	}
}

func TestCornerCountExplosion(t *testing.T) {
	corners := func(st *Stack) int { return (1 + len(AllCorners)) * st.MaskShiftCombos() }
	c16, c65 := corners(Stack16()), corners(Stack65())
	if c65 != 7 { // typ + 6, no multi-patterned layers
		t.Errorf("65nm corner count = %d, want 7", c65)
	}
	if c16 <= 4*c65 {
		t.Errorf("16nm corner count (%d) should explode vs 65nm (%d)", c16, c65)
	}
}

func TestCornerKindString(t *testing.T) {
	if CWorst.String() != "Cw" || RCBest.String() != "RCb" || Typical.String() != "typ" {
		t.Error("corner names wrong")
	}
}
