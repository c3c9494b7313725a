package ffchar

import (
	"testing"
)

func cfg() Config {
	c := Default65()
	c.Step = 0.75 // faster tests; accuracy adequate
	return c
}

func TestReferenceC2Q(t *testing.T) {
	c := cfg()
	ref, err := c.ReferenceC2Q()
	if err != nil {
		t.Fatal(err)
	}
	if ref <= 0 || ref > 400 {
		t.Errorf("reference c2q = %v ps, implausible", ref)
	}
}

func TestC2QPushoutWithShrinkingSetup(t *testing.T) {
	// Figure 10 left panel: c2q rises rapidly as setup time shrinks.
	c := cfg()
	pts, err := c.C2QvsSetup([]float64{160, 80, 40, 20, 10, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("only %d capture points", len(pts))
	}
	// Generous-setup c2q (first point) must be below the tightest
	// captured point's c2q.
	first, last := pts[0], pts[len(pts)-1]
	if last.C2Q <= first.C2Q {
		t.Errorf("c2q did not push out: %v at setup %v vs %v at %v",
			last.C2Q, last.Setup, first.C2Q, first.Setup)
	}
	// Pushout should be pronounced near the failure wall (≥ 10%).
	if last.C2Q < 1.08*first.C2Q {
		t.Errorf("pushout too weak: %v -> %v", first.C2Q, last.C2Q)
	}
	// Eventually capture fails: the sweep should have dropped points.
	if len(pts) == 7 {
		t.Log("note: all setups captured; failure wall below 0 ps (plausible)")
	}
}

func TestC2QPushoutWithShrinkingHold(t *testing.T) {
	// Figure 10 middle panel.
	c := cfg()
	pts, err := c.C2QvsHold([]float64{160, 80, 40, 20, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("only %d capture points", len(pts))
	}
	if pts[len(pts)-1].C2Q <= pts[0].C2Q {
		t.Errorf("c2q did not push out with shrinking hold: %v -> %v",
			pts[0].C2Q, pts[len(pts)-1].C2Q)
	}
}

func TestPushoutCriterionTimes(t *testing.T) {
	c := cfg()
	su, err := c.SetupTime()
	if err != nil {
		t.Fatal(err)
	}
	// 65nm-class flip-flop: tens of ps.
	if su < -10 || su > 200 {
		t.Errorf("setup time = %v ps, implausible", su)
	}
}

func TestSetupVsHoldInterdependency(t *testing.T) {
	// Figure 10 right panel: shrinking hold requires more setup.
	c := cfg()
	pts, err := c.SetupVsHold([]float64{120, 60, 30, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("contour has only %d points", len(pts))
	}
	// Holds are descending: required setup must be non-decreasing overall
	// (allow small numeric wiggle between adjacent points).
	firstS := pts[0].Setup
	lastS := pts[len(pts)-1].Setup
	if lastS <= firstS {
		t.Errorf("setup did not grow as hold shrank: %v (hold %v) -> %v (hold %v)",
			firstS, pts[0].Hold, lastS, pts[len(pts)-1].Hold)
	}
}

func TestOptimalPointRecoversSlack(t *testing.T) {
	// Synthetic trade-off curve: setup from 80 down to 10 with c2q rising.
	conv := Point{Setup: 60, Hold: 20, C2Q: 100}
	curve := []Point{
		{Setup: 80, C2Q: 98}, {Setup: 60, C2Q: 100}, {Setup: 40, C2Q: 104},
		{Setup: 25, C2Q: 112}, {Setup: 12, C2Q: 135},
	}
	// Setup-critical input (-30) with surplus downstream (+50): relax
	// setup, pay c2q.
	o := OptimalPoint(curve, conv, -30, 50)
	if o.Gain <= 0 {
		t.Fatalf("no recovery: %+v", o)
	}
	if o.Chosen.Setup >= conv.Setup {
		t.Errorf("expected a smaller setup, got %v", o.Chosen.Setup)
	}
	if o.SlackIn <= -30 || o.SlackOut >= 50 {
		t.Errorf("slack transfer wrong: %+v", o)
	}
	// Balanced boundary: no move helps.
	o2 := OptimalPoint(curve, conv, 10, 9)
	if o2.Gain < 0 {
		t.Errorf("negative gain should be impossible: %+v", o2)
	}
}

func TestRecoverAcrossBoundaries(t *testing.T) {
	conv := Point{Setup: 60, Hold: 20, C2Q: 100}
	curve := []Point{
		{Setup: 80, C2Q: 98}, {Setup: 60, C2Q: 100}, {Setup: 40, C2Q: 104},
		{Setup: 25, C2Q: 112}, {Setup: 12, C2Q: 135},
	}
	bs := []Boundary{
		{Name: "ff1", SlackIn: -40, SlackOut: 80},
		{Name: "ff2", SlackIn: 25, SlackOut: 25},
		{Name: "ff3", SlackIn: 60, SlackOut: -5},
	}
	res := Recover(curve, conv, bs)
	if res.WNSAfter <= res.WNSBefore {
		t.Errorf("no WNS recovery: %v -> %v", res.WNSBefore, res.WNSAfter)
	}
	if res.Moved == 0 || res.TotalGain <= 0 {
		t.Errorf("no boundaries moved: %+v", res)
	}
	// ff3 is launch-critical: wants a *larger* setup (smaller c2q).
	if res.Out[2].Gain > 0 && res.Out[2].Chosen.Setup <= conv.Setup {
		t.Errorf("ff3 should trade setup for c2q: %+v", res.Out[2])
	}
}
