package spice

import (
	"math"
	"testing"
)

func TestRCStepResponse(t *testing.T) {
	// 1 kΩ into 1 fF: tau = 1 ps. Drive a step and compare to the analytic
	// exponential.
	c := NewCircuit()
	c.V("in", Ground, PWL{T: []float64{10, 10.001}, V: []float64{0, 1}})
	c.R("in", "out", 1)
	c.C("out", Ground, 1)
	res, err := c.Transient(TranOpts{Stop: 20, Step: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []float64{0.5, 1, 2, 4} {
		want := 1 - math.Exp(-dt)
		got := res.At("out", 10.001+dt)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("v(tau+%v) = %v, want %v", dt, got, want)
		}
	}
}

func TestVoltageDividerDC(t *testing.T) {
	c := NewCircuit()
	c.V("a", Ground, DC(2))
	c.R("a", "mid", 3)
	c.R("mid", Ground, 1)
	res, err := c.Transient(TranOpts{Stop: 5, Step: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final("mid"); math.Abs(got-0.5) > 1e-6 {
		t.Errorf("divider = %v, want 0.5", got)
	}
}

func TestPWLWaveform(t *testing.T) {
	w := PWL{T: []float64{10, 20}, V: []float64{0, 1}}
	cases := []struct{ t, want float64 }{
		{0, 0}, {10, 0}, {15, 0.5}, {20, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := w.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := (PWL{}).At(5); got != 0 {
		t.Errorf("empty PWL = %v", got)
	}
	r := Ramp(1, 0, 5, 2)
	if got := r.At(6); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Ramp mid = %v", got)
	}
	p := Pulse(0, 1, 10, 20, 2)
	if got := p.At(21); got != 1 {
		t.Errorf("Pulse top = %v", got)
	}
}

func TestInverterStatics(t *testing.T) {
	for _, tech := range []Tech{Tech28, Tech65} {
		b := NewBuilder(tech)
		b.C.V("in", Ground, DC(0))
		b.Inverter("in", "out", CellOpts{})
		res, err := b.C.Transient(TranOpts{Stop: 300, Step: 0.5})
		if err != nil {
			t.Fatalf("%s: %v", tech.Name, err)
		}
		if got := res.Final("out"); math.Abs(got-tech.VDD) > 0.02 {
			t.Errorf("%s: out with low input = %v, want %v", tech.Name, got, tech.VDD)
		}
		b2 := NewBuilder(tech)
		b2.C.V("in", Ground, DC(tech.VDD))
		b2.Inverter("in", "out", CellOpts{})
		res2, err := b2.C.Transient(TranOpts{Stop: 300, Step: 0.5})
		if err != nil {
			t.Fatalf("%s: %v", tech.Name, err)
		}
		if got := res2.Final("out"); math.Abs(got) > 0.02 {
			t.Errorf("%s: out with high input = %v, want 0", tech.Name, got)
		}
	}
}

func TestInverterSwitchingDelay(t *testing.T) {
	b := NewBuilder(Tech28)
	b.C.V("in", Ground, Ramp(0, Tech28.VDD, 100, 20))
	b.Inverter("in", "out", CellOpts{})
	b.FanoutLoad("out", 4)
	res, err := b.C.Transient(TranOpts{Stop: 300, Step: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	half := Tech28.VDD / 2
	tin := res.Cross("in", half, true, 90)
	tout := res.Cross("out", half, false, 90)
	if math.IsNaN(tin) || math.IsNaN(tout) {
		t.Fatal("no switching observed")
	}
	d := tout - tin
	if d <= 0 || d > 100 {
		t.Errorf("FO4-class inverter delay = %v ps, want small positive", d)
	}
}

func TestInverterDelayIncreasesWithLoad(t *testing.T) {
	delay := func(fanout int) float64 {
		b := NewBuilder(Tech28)
		b.C.V("in", Ground, Ramp(0, Tech28.VDD, 100, 20))
		b.Inverter("in", "out", CellOpts{})
		b.FanoutLoad("out", fanout)
		res, err := b.C.Transient(TranOpts{Stop: 400, Step: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		half := Tech28.VDD / 2
		return res.Cross("out", half, false, 90) - res.Cross("in", half, true, 90)
	}
	d1, d4, d8 := delay(1), delay(4), delay(8)
	if !(d1 < d4 && d4 < d8) {
		t.Errorf("delay not monotone in fanout: %v %v %v", d1, d4, d8)
	}
}

func TestLowerVDDSlower(t *testing.T) {
	delay := func(scale float64) float64 {
		tech := Tech28
		tech.VDD *= scale
		b := NewBuilder(tech)
		b.C.V("in", Ground, Ramp(0, tech.VDD, 100, 20))
		b.Inverter("in", "out", CellOpts{})
		b.FanoutLoad("out", 3)
		res, err := b.C.Transient(TranOpts{Stop: 500, Step: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		half := tech.VDD / 2
		return res.Cross("out", half, false, 90) - res.Cross("in", half, true, 90)
	}
	if d10, d08 := delay(1.0), delay(0.8); d08 <= d10 {
		t.Errorf("0.8·VDD delay (%v) should exceed nominal (%v)", d08, d10)
	}
}

func TestNAND2Truth(t *testing.T) {
	cases := []struct {
		a, b float64
		want float64
	}{
		{0, 0, Tech28.VDD},
		{0, Tech28.VDD, Tech28.VDD},
		{Tech28.VDD, 0, Tech28.VDD},
		{Tech28.VDD, Tech28.VDD, 0},
	}
	for _, cse := range cases {
		b := NewBuilder(Tech28)
		b.C.V("a", Ground, DC(cse.a))
		b.C.V("b", Ground, DC(cse.b))
		b.NAND2("a", "b", "out", CellOpts{})
		res, err := b.C.Transient(TranOpts{Stop: 300, Step: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Final("out"); math.Abs(got-cse.want) > 0.05 {
			t.Errorf("NAND(%v,%v) = %v, want %v", cse.a, cse.b, got, cse.want)
		}
	}
}

func TestDFFCapturesOnRisingEdge(t *testing.T) {
	vdd := Tech65.VDD
	b := NewBuilder(Tech65)
	// D goes high well before the clock edge at t=400; Q must be high
	// shortly after the edge and not before.
	b.C.V("d", Ground, Ramp(0, vdd, 200, 30))
	b.C.V("ck", Ground, Pulse(0, vdd, 400, 280, 20))
	b.DFF("d", "ck", "q", CellOpts{})
	res, err := b.C.Transient(TranOpts{Stop: 900, Step: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.At("q", 395); got > 0.2*vdd {
		t.Errorf("Q high before clock edge: %v", got)
	}
	tq := res.Cross("q", vdd/2, true, 400)
	if math.IsNaN(tq) {
		t.Fatal("Q never rose after the clock edge")
	}
	c2q := tq - res.Cross("ck", vdd/2, true, 395)
	if c2q <= 0 || c2q > 300 {
		t.Errorf("c2q = %v ps, implausible", c2q)
	}
}

func TestDFFIgnoresLateData(t *testing.T) {
	vdd := Tech65.VDD
	b := NewBuilder(Tech65)
	// D rises long after the edge: Q must stay low through the cycle.
	b.C.V("d", Ground, Ramp(0, vdd, 550, 30))
	b.C.V("ck", Ground, Pulse(0, vdd, 400, 580, 20))
	b.DFF("d", "ck", "q", CellOpts{})
	res, err := b.C.Transient(TranOpts{Stop: 950, Step: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.At("q", 940); got > 0.2*vdd {
		t.Errorf("Q captured late data: %v", got)
	}
}

func TestMOSFETRegionContinuity(t *testing.T) {
	// Current and gm must be continuous across the linear/saturation
	// boundary — discontinuities would wreck Newton convergence.
	p := Tech28.nmos(1, 0)
	vgs := 0.8
	vgst := vgs - p.Vt
	vd0 := p.Kv * math.Pow(vgst, p.Alpha/2)
	iBelow, gmBelow, _ := nmosEval(p, vgs, vd0*(1-1e-9))
	iAbove, gmAbove, _ := nmosEval(p, vgs, vd0*(1+1e-9))
	if math.Abs(iBelow-iAbove) > 1e-6*math.Abs(iAbove) {
		t.Errorf("current discontinuous at vd0: %v vs %v", iBelow, iAbove)
	}
	if math.Abs(gmBelow-gmAbove) > 1e-3*math.Abs(gmAbove)+1e-9 {
		t.Errorf("gm discontinuous at vd0: %v vs %v", gmBelow, gmAbove)
	}
	// Cutoff.
	if i, _, _ := nmosEval(p, p.Vt-0.01, 0.5); i != 0 {
		t.Errorf("subthreshold current = %v, want 0", i)
	}
}

func TestMOSFETSourceDrainSwapAntisymmetry(t *testing.T) {
	// A transmission-gate device must conduct symmetric current when its
	// terminals are exchanged (drain↔source).
	m := mosfet{p: Tech28.nmos(1, 0)}
	idFwd, _, _, _ := m.eval(0.3, 0.9, 0.0)
	idRev, _, _, _ := m.eval(0.0, 0.9, 0.3)
	if math.Abs(idFwd+idRev) > 1e-12 {
		t.Errorf("swap antisymmetry broken: %v vs %v", idFwd, idRev)
	}
}

func TestSolverSingularMatrix(t *testing.T) {
	m := newMatrix(2)
	// Row of zeros: singular.
	m.add(0, 0, 1)
	if err := m.solve([]float64{1, 1}, make([]float64, 2)); err == nil {
		t.Error("singular matrix solved without error")
	}
}

func TestSolverKnownSystem(t *testing.T) {
	// [[2,1],[1,3]] x = [5,10] -> x = [1, 3].
	m := newMatrix(2)
	m.add(0, 0, 2)
	m.add(0, 1, 1)
	m.add(1, 0, 1)
	m.add(1, 1, 3)
	x := make([]float64, 2)
	if err := m.solve([]float64{5, 10}, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

// Trapezoidal integration is second-order: against a fine-step reference,
// halving the step on a smooth stimulus should cut the error ≈4x.
func TestTrapezoidalConvergenceOrder(t *testing.T) {
	// Smooth ramp aligned to all grids (start/end at multiples of 0.4).
	run := func(step float64) *Result {
		c := NewCircuit()
		c.V("in", Ground, Ramp(0, 1, 4.0, 3.2))
		c.R("in", "out", 2)
		c.C("out", Ground, 3) // tau = 6 ps
		res, err := c.Transient(TranOpts{Stop: 24, Step: step})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0.0125)
	errAt := func(res *Result) float64 {
		worst := 0.0
		for _, tt := range []float64{8.0, 12.0, 16.0, 20.0} {
			if e := math.Abs(res.At("out", tt) - ref.At("out", tt)); e > worst {
				worst = e
			}
		}
		return worst
	}
	e1 := errAt(run(0.4))
	e2 := errAt(run(0.2))
	if e2 <= 1e-12 {
		t.Skip("error below measurement floor")
	}
	ratio := e1 / e2
	if ratio < 2.5 {
		t.Errorf("error ratio for step halving = %v, want ≈4 (second order)", ratio)
	}
}
