package parasitics

import (
	"math"
	"testing"
)

// ladder builds a 2-node RC ladder: root -R1- n1 -R2- n2, caps c1, c2.
func ladder(r1, c1, r2, c2 float64) *Tree {
	t := NewTree()
	n1 := t.AddNode(0, r1, c1, 0, 0)
	n2 := t.AddNode(n1, r2, c2, 0, 0)
	t.MarkSink(n2)
	return t
}

func TestElmoreLadderExact(t *testing.T) {
	// Elmore to far node of a 2-stage ladder: R1(C1+C2) + R2·C2.
	tr := ladder(2, 3, 5, 7)
	want := 2*(3+7.0) + 5*7.0
	got := tr.Elmore(nil)[0]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Elmore = %v, want %v", got, want)
	}
}

func TestElmoreBranching(t *testing.T) {
	// Root with two branches; sink on branch A must not see branch B's R,
	// but must see its C through the shared (zero here) path.
	tr := NewTree()
	a := tr.AddNode(0, 4, 2, 0, 0)
	b := tr.AddNode(0, 9, 5, 0, 0)
	tr.MarkSink(a)
	tr.MarkSink(b)
	d := tr.Elmore(nil)
	if math.Abs(d[0]-4*2.0) > 1e-9 {
		t.Errorf("sink A Elmore = %v, want 8", d[0])
	}
	if math.Abs(d[1]-9*5.0) > 1e-9 {
		t.Errorf("sink B Elmore = %v, want 45", d[1])
	}
	// Shared trunk: root -Rt- mid, then two branches. Sink A sees
	// Rt·(all C) + Ra·Ca.
	tr2 := NewTree()
	mid := tr2.AddNode(0, 1, 0, 0, 0)
	a2 := tr2.AddNode(mid, 4, 2, 0, 0)
	b2 := tr2.AddNode(mid, 9, 5, 0, 0)
	tr2.MarkSink(a2)
	tr2.MarkSink(b2)
	d2 := tr2.Elmore(nil)
	if want := 1*(2+5.0) + 4*2.0; math.Abs(d2[0]-want) > 1e-9 {
		t.Errorf("shared-trunk sink A = %v, want %v", d2[0], want)
	}
}

func TestTotalCapAndScaling(t *testing.T) {
	tr := ladder(1, 3, 1, 7)
	if got := tr.TotalCapM(nil, MillerFactor); math.Abs(got-10) > 1e-9 {
		t.Errorf("TotalCap = %v, want 10", got)
	}
	s := Uniform(1, 2, 3, 1) // layer 0: R×2, C×3
	if got := tr.TotalCapM(s, MillerFactor); math.Abs(got-30) > 1e-9 {
		t.Errorf("scaled TotalCap = %v, want 30", got)
	}
	// Elmore scales as R×C: factor 6.
	base := tr.Elmore(nil)[0]
	scaled := tr.Elmore(s)[0]
	if math.Abs(scaled/base-6) > 1e-9 {
		t.Errorf("scaled/base Elmore = %v, want 6", scaled/base)
	}
}

func TestCouplingCapCountsWithMiller(t *testing.T) {
	tr := NewTree()
	n := tr.AddNode(0, 1, 2, 3, 0) // 2 fF ground + 3 fF coupling
	tr.MarkSink(n)
	if got := tr.TotalCapM(nil, MillerFactor); math.Abs(got-5) > 1e-9 {
		t.Errorf("TotalCap with coupling = %v, want 5 (Miller=1)", got)
	}
	// Cc-only scaling changes delay.
	s := Uniform(1, 1, 1, 2)
	if got := tr.TotalCapM(s, MillerFactor); math.Abs(got-8) > 1e-9 {
		t.Errorf("Cc-scaled TotalCap = %v, want 8", got)
	}
}

func TestD2MVsElmore(t *testing.T) {
	// D2M is a tighter (smaller) estimate than Elmore on RC lines, and both
	// must be positive.
	tr := NewTree()
	at := 0
	for i := 0; i < 10; i++ {
		at = tr.AddNode(at, 0.5, 1.2, 0, 0)
	}
	tr.MarkSink(at)
	elm := tr.Elmore(nil)[0]
	d2m := tr.DelayD2M(nil)[0]
	if d2m <= 0 || elm <= 0 {
		t.Fatalf("non-positive delays: elmore %v d2m %v", elm, d2m)
	}
	if d2m > elm {
		t.Errorf("D2M (%v) should not exceed Elmore (%v) on a line", d2m, elm)
	}
	// On a distributed line D2M ≈ 0.7·Elmore-ish; sanity band.
	if d2m < 0.3*elm {
		t.Errorf("D2M (%v) implausibly small vs Elmore (%v)", d2m, elm)
	}
}

func TestSlewDegradationGrowsWithLength(t *testing.T) {
	mk := func(n int) float64 {
		tr := NewTree()
		at := 0
		for i := 0; i < n; i++ {
			at = tr.AddNode(at, 0.5, 1.2, 0, 0)
		}
		tr.MarkSink(at)
		return tr.SlewDegradation(nil)[0]
	}
	if !(mk(4) < mk(8) && mk(8) < mk(16)) {
		t.Errorf("slew degradation not increasing with length: %v %v %v", mk(4), mk(8), mk(16))
	}
}

func TestTreeValidate(t *testing.T) {
	good := ladder(1, 1, 1, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	bad := &Tree{Parent: []int{0}, R: []float64{0}, C: []float64{0}, Cc: []float64{0}, Layer: []int{-1}}
	if err := bad.Validate(); err == nil {
		t.Error("malformed root accepted")
	}
	neg := NewTree()
	neg.AddNode(0, -1, 0, 0, 0)
	if err := neg.Validate(); err == nil {
		t.Error("negative R accepted")
	}
	sink := NewTree()
	sink.MarkSink(0)
	if err := sink.Validate(); err == nil {
		t.Error("root marked as sink accepted")
	}
}

func TestElmoreMonotoneAlongPath(t *testing.T) {
	// Property: on any chain, Elmore delay increases monotonically toward
	// the far end.
	tr := NewTree()
	at := 0
	var sinks []int
	for i := 0; i < 12; i++ {
		at = tr.AddNode(at, 0.3+0.1*float64(i%3), 0.8, 0, 0)
		tr.MarkSink(at)
		sinks = append(sinks, at)
	}
	d := tr.Elmore(nil)
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Fatalf("Elmore not monotone along chain at %d: %v <= %v", i, d[i], d[i-1])
		}
	}
	_ = sinks
}

func TestSinkCapsLoadTheNet(t *testing.T) {
	tr := ladder(1, 3, 1, 7)
	var sc Scratch
	bare := *sc.Moments(tr, nil, nil, 1, 1)
	if math.Abs(bare.CapL-10) > 1e-9 {
		t.Errorf("total cap without pin = %v, want 10", bare.CapL)
	}
	base := bare.M1[0]
	loaded := sc.Moments(tr, []float64{5}, nil, 1, 1)
	if math.Abs(loaded.CapL-15) > 1e-9 {
		t.Errorf("total cap with pin = %v, want 15", loaded.CapL)
	}
	// Pin cap is upstream of nothing: delay at sink includes R seen by it.
	if loaded.M1[0] <= base {
		t.Errorf("pin cap should slow the sink: %v <= %v", loaded.M1[0], base)
	}
	// Pin caps must not scale with BEOL corner C factors.
	if got := sc.Moments(tr, []float64{5}, Uniform(1, 1, 2, 1), 1, 1).CapL; math.Abs(got-(20+5)) > 1e-9 {
		t.Errorf("corner-scaled cap = %v, want 25 (pin cap unscaled)", got)
	}
	// The tree itself is untouched.
	if got := tr.TotalCapM(nil, MillerFactor); math.Abs(got-10) > 1e-9 || tr.N() != 3 {
		t.Errorf("tree mutated: cap %v, %d nodes", got, tr.N())
	}
}

func TestElmoreMiller(t *testing.T) {
	tr := NewTree()
	n := tr.AddNode(0, 2, 1, 3, 0)
	tr.MarkSink(n)
	d0 := tr.ElmoreM(nil, 0)[0]
	d1 := tr.ElmoreM(nil, 1)[0]
	d2 := tr.ElmoreM(nil, 2)[0]
	if !(d0 < d1 && d1 < d2) {
		t.Errorf("Miller ordering broken: %v %v %v", d0, d1, d2)
	}
	if math.Abs(d0-2*1.0) > 1e-9 || math.Abs(d2-2*7.0) > 1e-9 {
		t.Errorf("Miller endpoints wrong: %v %v", d0, d2)
	}
	if got := tr.TotalCoupling(nil); math.Abs(got-3) > 1e-9 {
		t.Errorf("TotalCoupling = %v, want 3", got)
	}
}
