package aging

import (
	"math"
	"testing"
)

func TestBTIMonotonicity(t *testing.T) {
	m := DefaultBTI
	// ΔVt grows with time, voltage and temperature.
	base := m.DeltaVt(1, 0.8, 105)
	if base <= 0 {
		t.Fatalf("ΔVt(1yr) = %v", base)
	}
	if m.DeltaVt(10, 0.8, 105) <= base {
		t.Error("ΔVt not growing with time")
	}
	if m.DeltaVt(1, 0.9, 105) <= base {
		t.Error("ΔVt not growing with voltage")
	}
	if m.DeltaVt(1, 0.8, 125) <= base {
		t.Error("ΔVt not growing with temperature")
	}
	if m.DeltaVt(0, 0.8, 105) != 0 {
		t.Error("ΔVt at t=0 should be 0")
	}
}

func TestBTICalibration(t *testing.T) {
	// 10 years at 0.8V/105°C should land in the 20–60 mV class.
	d := DefaultBTI.DeltaVt(10, 0.8, 105)
	if d < 0.02 || d > 0.06 {
		t.Errorf("10-year ΔVt = %v V, want 20–60 mV", d)
	}
}

func TestEquivalentStressRoundTrip(t *testing.T) {
	m := DefaultBTI
	for _, yrs := range []float64{0.5, 2, 7} {
		d := m.DeltaVt(yrs, 0.85, 105)
		back := m.EquivalentStressYears(d, 0.85, 105)
		if math.Abs(back-yrs) > 1e-6*yrs {
			t.Errorf("round trip %v years -> %v", yrs, back)
		}
	}
	if m.EquivalentStressYears(0, 0.8, 105) != 0 {
		t.Error("zero ΔVt should give zero stress")
	}
}

func TestCircuitDelayBehaviour(t *testing.T) {
	c := C5315Model()
	d0 := c.Delay(0.8, 0)
	if d0 <= 0 || math.IsInf(d0, 0) {
		t.Fatalf("delay = %v", d0)
	}
	// Aging slows the circuit; voltage speeds it.
	if c.Delay(0.8, 0.04) <= d0 {
		t.Error("aged circuit should be slower")
	}
	if c.Delay(0.9, 0) >= d0 {
		t.Error("higher V should be faster")
	}
	// Upsizing speeds the circuit (fixed side loads shrink relatively).
	big := c
	big.Sizing = 2
	if big.Delay(0.8, 0) >= d0 {
		t.Error("upsized circuit should be faster")
	}
}

func TestSizeForMeetsTarget(t *testing.T) {
	for _, c := range AllModels() {
		sized := c.SizeFor(0.8, 0.035)
		got := sized.Delay(0.8, 0.035)
		if got > c.TargetDelay()*1.001 {
			t.Errorf("%s: sized delay %v exceeds target %v", c.Name, got, c.TargetDelay())
		}
		// Sizing for more aging costs more area.
		relaxed := c.SizeFor(0.8, 0)
		if sized.Sizing <= relaxed.Sizing {
			t.Errorf("%s: aging allowance should require more sizing (%v vs %v)",
				c.Name, sized.Sizing, relaxed.Sizing)
		}
	}
}

func TestLifetimeAVSRaisesVoltage(t *testing.T) {
	cfg := DefaultLifetime()
	c := C5315Model().SizeFor(0.8, 0.02)
	r := cfg.Simulate(c)
	if !r.Met {
		t.Fatal("lifetime target not met within AVS range")
	}
	if r.FinalV <= r.InitialV {
		t.Errorf("AVS should raise V over life: %v -> %v", r.InitialV, r.FinalV)
	}
	if r.FinalDvt <= 0 {
		t.Error("no aging accumulated")
	}
	if r.AvgPower <= 0 {
		t.Error("no power computed")
	}
}

func TestChickenEggAcceleration(t *testing.T) {
	// The closed-loop (AVS raises V → faster aging) must age more than an
	// open-loop device stressed at the initial voltage.
	cfg := DefaultLifetime()
	c := C5315Model().SizeFor(0.8, 0.01)
	r := cfg.Simulate(c)
	openLoop := cfg.BTI.DeltaVt(cfg.Years, r.InitialV, c.Temp)
	if r.FinalDvt <= openLoop {
		t.Errorf("closed-loop ΔVt (%v) should exceed open-loop at initial V (%v)",
			r.FinalDvt, openLoop)
	}
}

func TestSweepCornersTradeoff(t *testing.T) {
	cfg := DefaultLifetime()
	corners := DefaultCorners()
	for _, c := range AllModels() {
		out := SweepCorners(cfg, c, 0.8, corners)
		if len(out) != len(corners) {
			t.Fatalf("%s: %d outcomes", c.Name, len(out))
		}
		// Area must be non-decreasing with the assumed aging corner.
		for i := 1; i < len(out); i++ {
			if out[i].Area < out[i-1].Area {
				t.Errorf("%s: area not monotone at corner %d", c.Name, i+1)
			}
		}
		// Underestimation (corner 1) must cost lifetime power vs the best
		// corner: paper Figure 9's "substantial power or area overheads
		// can result from improper choice".
		best := math.Inf(1)
		for _, o := range out {
			if o.PowerPct < best {
				best = o.PowerPct
			}
		}
		if out[0].PowerPct < best+1 {
			t.Errorf("%s: no-aging corner shows no power penalty (%.1f%% vs best %.1f%%)",
				c.Name, out[0].PowerPct, best)
		}
		// Overestimation (corner 7) must cost area vs corner 1.
		if out[len(out)-1].AreaPct <= out[0].AreaPct {
			t.Errorf("%s: overestimation shows no area penalty", c.Name)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	cfg := DefaultLifetime()
	c := AESModel()
	a := SweepCorners(cfg, c, 0.8, DefaultCorners())
	b := SweepCorners(cfg, c, 0.8, DefaultCorners())
	for i := range a {
		if a[i].AvgPower != b[i].AvgPower || a[i].Area != b[i].Area {
			t.Fatal("sweep not deterministic")
		}
	}
}
