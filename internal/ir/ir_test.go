package ir

import (
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/place"
	"newgame/internal/sta"
)

func setup(t *testing.T) (*place.Placement, *liberty.Library) {
	t.Helper()
	lib := liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.SSG, Voltage: 0.72, Temp: 125}, liberty.GenOptions{})
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "ir", Inputs: 12, Outputs: 12, FFs: 48, Gates: 700,
		Seed: 55, ClockBufferLevels: 2,
	})
	p, err := place.New(d, lib, 400, 55)
	if err != nil {
		t.Fatal(err)
	}
	return p, lib
}

func TestDroopBasics(t *testing.T) {
	p, lib := setup(t)
	an := Run(p, lib, DefaultConfig())
	if an.MaxDroop <= 0 {
		t.Fatal("no droop computed")
	}
	if an.MaxDroop >= lib.PVT.Voltage/2 {
		t.Errorf("max droop %v implausibly large", an.MaxDroop)
	}
	if an.MeanDroop <= 0 || an.MeanDroop >= an.MaxDroop {
		t.Errorf("mean droop %v vs max %v inconsistent", an.MeanDroop, an.MaxDroop)
	}
}

func TestDroopScalesWithActivity(t *testing.T) {
	p, lib := setup(t)
	lo := DefaultConfig()
	lo.Activity = 0.05
	hi := DefaultConfig()
	hi.Activity = 0.30
	if Run(p, lib, hi).MaxDroop <= Run(p, lib, lo).MaxDroop {
		t.Error("droop should grow with activity")
	}
}

func TestDroopMidSpanWorst(t *testing.T) {
	p, lib := setup(t)
	an := Run(p, lib, DefaultConfig())
	// Cells near a strap (x ≈ k·pitch) should droop less than mid-span
	// cells in the same row. Compare extremes within row 0.
	cells := p.RowCells(0)
	if len(cells) < 8 {
		t.Skip("row too short")
	}
	var nearStrap, midSpan *float64
	for _, c := range cells {
		loc := p.Loc(c)
		x := (float64(loc.Site) + float64(loc.Width)/2) * p.SiteWidth
		span := DefaultConfig().StrapPitch
		xs := x - span*float64(int(x/span))
		d := an.droop[c]
		if xs < span*0.1 || xs > span*0.9 {
			nearStrap = &d
		}
		if xs > span*0.4 && xs < span*0.6 {
			midSpan = &d
		}
	}
	if nearStrap == nil || midSpan == nil {
		t.Skip("no suitable cells at both positions")
	}
	if *midSpan <= *nearStrap {
		t.Errorf("mid-span droop (%v) should exceed near-strap (%v)", *midSpan, *nearStrap)
	}
}

func TestIRDerateSlowsSetupTiming(t *testing.T) {
	p, lib := setup(t)
	an := Run(p, lib, DefaultConfig())
	d := p.D
	run := func(withIR bool) float64 {
		cons := sta.NewConstraints()
		cons.AddClock("clk", 700, d.Port("clk"))
		cfg := sta.Config{Lib: lib}
		if withIR {
			cfg.CellDerate = an.DerateFn()
		}
		a, err := sta.New(d, cons, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a.WorstSlack(sta.Setup)
	}
	off := run(false)
	on := run(true)
	if on >= off {
		t.Errorf("dynamic IR should reduce setup slack: %v -> %v", off, on)
	}
	// Hold must not get optimistic credit from droop.
	runHold := func(withIR bool) float64 {
		cons := sta.NewConstraints()
		cons.AddClock("clk", 700, d.Port("clk"))
		cfg := sta.Config{Lib: lib}
		if withIR {
			cfg.CellDerate = an.DerateFn()
		}
		a, err := sta.New(d, cons, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a.WorstSlack(sta.Hold)
	}
	if runHold(true) > runHold(false)+1e-9 {
		t.Error("droop derate credited to early/hold analysis")
	}
}

func TestDerateFnBounds(t *testing.T) {
	p, lib := setup(t)
	an := Run(p, lib, DefaultConfig())
	fn := an.DerateFn()
	for _, c := range p.D.Cells {
		f := fn(c)
		if f < 1 || f > 4 {
			t.Fatalf("derate %v out of [1,4] for %s", f, c.Name)
		}
	}
}
