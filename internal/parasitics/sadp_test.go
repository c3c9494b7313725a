package parasitics

import (
	"math"
	"math/rand"
	"testing"

	"newgame/internal/units"
)

func TestSADPSigmaFormulas(t *testing.T) {
	s := SADPSigmas{Mandrel: 1.0, Spacer: 0.7, Block: 1.2, MandrelBlock: 1.1}
	// Hand-computed from the paper's Figure 5(c) variance decompositions.
	cases := []struct {
		kind PatterningKind
		want float64
	}{
		{MandrelMandrel, 1.0},
		{SpacerSpacer, math.Sqrt(1.0 + 2*0.49)},
		{MandrelBlock, math.Sqrt(0.25 + 1.21 + 0.25*1.44)},
		{SpacerBlock, math.Sqrt(0.25 + 0.49 + 1.21 + 0.25*1.44)},
	}
	for _, c := range cases {
		if got := s.CDSigma(c.kind); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDSigma(%v) = %v, want %v", c.kind, got, c.want)
		}
	}
}

func TestSADPSigmaOrdering(t *testing.T) {
	// With any positive component sigmas: spacer/block is the worst case,
	// mandrel/mandrel the best, and adding the block mask never helps a
	// spacer-defined line.
	s := DefaultSADP16
	mm := s.CDSigma(MandrelMandrel)
	ss := s.CDSigma(SpacerSpacer)
	sb := s.CDSigma(SpacerBlock)
	mb := s.CDSigma(MandrelBlock)
	if !(mm < ss) {
		t.Errorf("mandrel/mandrel (%v) should beat spacer/spacer (%v)", mm, ss)
	}
	if !(sb > mb) {
		t.Errorf("spacer/block (%v) should be worse than mandrel/block (%v)", sb, mb)
	}
	if !(sb >= mm && sb >= ss) {
		t.Errorf("spacer/block (%v) should be the worst overall", sb)
	}
}

func TestRCImpact(t *testing.T) {
	rRel, cRel := RCImpact(1.5, 20)
	if math.Abs(rRel-0.075) > 1e-12 {
		t.Errorf("rSigmaRel = %v, want 0.075", rRel)
	}
	if cRel >= rRel || cRel <= 0 {
		t.Errorf("cap sensitivity (%v) should be positive and below R's (%v)", cRel, rRel)
	}
}

func TestBimodalCD(t *testing.T) {
	b := BimodalCD{TargetNm: 32, ShiftNm: 1.2, SigmaNm: 0.8}
	rng := rand.New(rand.NewSource(42))
	n := 20000
	all := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		all = append(all,
			b.TargetNm+b.ShiftNm+rng.NormFloat64()*b.SigmaNm,
			b.TargetNm-b.ShiftNm+rng.NormFloat64()*b.SigmaNm)
	}
	// Merged population sigma matches the analytic √(σ²+Δ²).
	if got, want := units.Stddev(all), b.PopulationSigma(); math.Abs(got-want) > 0.03 {
		t.Errorf("merged σ = %v, want %v", got, want)
	}
}

func TestPatterningKindString(t *testing.T) {
	for _, k := range AllPatternings {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", k)
		}
	}
}

func TestNetGenTopologies(t *testing.T) {
	g := NewNetGen(Stack16(), 3)
	for fo := 1; fo <= 12; fo++ {
		tr := g.Net(fo)
		if err := tr.Validate(); err != nil {
			t.Fatalf("fanout %d: %v", fo, err)
		}
		if len(tr.Sinks) != fo {
			t.Fatalf("fanout %d: %d sinks", fo, len(tr.Sinks))
		}
		if tr.TotalCapM(nil, MillerFactor) <= 0 {
			t.Fatalf("fanout %d: non-positive cap", fo)
		}
	}
	// Zero fanout is clamped to one sink.
	if got := len(g.Net(0).Sinks); got != 1 {
		t.Errorf("fanout 0 gives %d sinks, want 1", got)
	}
}

func TestBuilders(t *testing.T) {
	st := Stack16()
	p2p := PointToPoint(st, 2, 100, 0.4)
	if len(p2p.Sinks) != 1 || p2p.Validate() != nil {
		t.Error("PointToPoint malformed")
	}
	tr := Trunk(st, 2, 0, 120, 2, 6, 0.4)
	if len(tr.Sinks) != 6 || tr.Validate() != nil {
		t.Error("Trunk malformed")
	}
	// Trunk taps get monotonically slower along the trunk.
	dt := tr.Elmore(nil)
	for i := 1; i < len(dt); i++ {
		if dt[i] <= dt[i-1] {
			t.Errorf("trunk tap %d not slower than %d: %v <= %v", i, i-1, dt[i], dt[i-1])
		}
	}
}
