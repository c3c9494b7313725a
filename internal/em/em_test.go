package em

import (
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
)

func lib() *liberty.Library {
	return liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 105}, liberty.GenOptions{})
}

// analyzer over a block, with the parasitics table it was timed over.
func setup(t *testing.T, seed int64) (*sta.Analyzer, *liberty.Library, *sta.Parasitics) {
	t.Helper()
	l := lib()
	d := circuits.Block(l, circuits.BlockSpec{
		Name: "em", Inputs: 12, Outputs: 12, FFs: 64, Gates: 600,
		Seed: seed, ClockBufferLevels: 2,
	})
	binder := sta.NewNetBinder(parasitics.Stack16(), seed)
	cons := sta.NewConstraints()
	cons.AddClock("clk", 700, d.Port("clk"))
	a, err := sta.New(d, cons, sta.Config{Lib: l, Parasitics: binder})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return a, l, binder
}

func TestModestActivityOnlyClockNetsViolate(t *testing.T) {
	// At low data activity the only EM stress left is the clock (activity
	// 1 every cycle) — the reason real flows give clock routing wide
	// non-default rules. A clock-aware width rule must clean the report.
	a, l, binder := setup(t, 61)
	st := parasitics.Stack16()
	cfg := DefaultConfig()
	cfg.Activity = 0.02
	viols := Check(a, l, st, binder, cfg)
	for _, v := range viols {
		if !isClockNet(l, v.Net) {
			t.Errorf("data net %s violates EM at 2%% activity (%.2f/%.2f mA)",
				v.Net.Name, v.IRms, v.Limit)
		}
	}
	if len(viols) == 0 {
		t.Log("note: no clock EM at this size; larger trees would show it")
	}
	cfg.WidthFactor = func(n *netlist.Net) float64 {
		if isClockNet(l, n) {
			return 4 // wide clock rule
		}
		return 1
	}
	if left := Check(a, l, st, binder, cfg); len(left) != 0 {
		t.Errorf("%d violations remain after wide clock routing", len(left))
	}
}

func TestClockNetsDominate(t *testing.T) {
	a, l, binder := setup(t, 62)
	cfg := DefaultConfig()
	cfg.FreqGHz = 3.0 // push the design into EM stress
	cfg.Activity = 0.25
	viols := Check(a, l, parasitics.Stack16(), binder, cfg)
	if len(viols) == 0 {
		t.Skip("no violations even at 3 GHz; current model very conservative")
	}
	// The worst violators should include clock nets (activity 1).
	clockCount := 0
	for _, v := range viols {
		if isClockNet(l, v.Net) {
			clockCount++
		}
	}
	if clockCount == 0 {
		t.Error("no clock nets among EM violators despite activity 1")
	}
	for _, v := range viols {
		if v.IRms <= v.Limit {
			t.Fatalf("reported violation below limit: %+v", v)
		}
		if v.Layer == "" {
			t.Fatal("violation without binding layer")
		}
	}
}

func TestFrequencyMonotonicity(t *testing.T) {
	a, l, binder := setup(t, 63)
	st := parasitics.Stack16()
	count := func(f float64) int {
		cfg := DefaultConfig()
		cfg.FreqGHz = f
		return len(Check(a, l, st, binder, cfg))
	}
	if count(4.0) < count(1.0) {
		t.Error("EM violations should not decrease with frequency")
	}
}

func TestWiderRuleRaisesCapacity(t *testing.T) {
	a, l, binder := setup(t, 64)
	st := parasitics.Stack16()
	cfg := DefaultConfig()
	cfg.FreqGHz = 3.0
	cfg.Activity = 0.25
	base := Check(a, l, st, binder, cfg)
	if len(base) == 0 {
		t.Skip("no violations to widen away")
	}
	wide := cfg
	wide.WidthFactor = func(*netlist.Net) float64 { return 2.0 }
	widened := Check(a, l, st, binder, wide)
	if len(widened) >= len(base) {
		t.Errorf("2x-wide routes should cut EM violations: %d -> %d", len(base), len(widened))
	}
}

func TestSelfHeatingDerate(t *testing.T) {
	a, l, binder := setup(t, 65)
	st := parasitics.Stack16()
	cool := DefaultConfig()
	cool.FreqGHz = 2.5
	cool.Activity = 0.25
	cool.SelfHeatC = 0
	hot := cool
	hot.SelfHeatC = 25
	if len(Check(a, l, st, binder, hot)) < len(Check(a, l, st, binder, cool)) {
		t.Error("self-heating should not reduce EM violations")
	}
}
