package circuits

import (
	"math/rand"
	"testing"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
)

func lib(t testing.TB) *liberty.Library {
	t.Helper()
	return liberty.Generate(liberty.Node16, liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}, liberty.GenOptions{})
}

func TestChainStructure(t *testing.T) {
	l := lib(t)
	d := Chain(l, ChainSpec{Stages: 10, Gate: "NAND2", Drive: 2, Vt: liberty.HVT})
	if errs := d.Validate(); len(errs) != 0 {
		t.Fatalf("chain invalid: %v", errs)
	}
	st := d.Stats()
	if st.Cells != 12 { // 10 gates + 2 FFs
		t.Errorf("cells = %d, want 12", st.Cells)
	}
	if d.Cell("g0").TypeName != "NAND2_X2_HVT" {
		t.Errorf("gate master = %s", d.Cell("g0").TypeName)
	}
}

func TestBlockStructureAndDeterminism(t *testing.T) {
	l := lib(t)
	spec := BlockSpec{Name: "b", Inputs: 12, Outputs: 8, FFs: 32, Gates: 400, MaxDepth: 10, Seed: 7, ClockBufferLevels: 2}
	d := Block(l, spec)
	if errs := d.Validate(); len(errs) != 0 {
		t.Fatalf("block invalid: %v (first of %d)", errs[0], len(errs))
	}
	// Deterministic regeneration.
	d2 := Block(l, spec)
	if len(d.Cells) != len(d2.Cells) || len(d.Nets) != len(d2.Nets) {
		t.Error("generation not deterministic in size")
	}
	for i := range d.Cells {
		if d.Cells[i].TypeName != d2.Cells[i].TypeName || d.Cells[i].Name != d2.Cells[i].Name {
			t.Fatalf("cell %d differs between runs", i)
		}
	}
	// Every FF must have a clock.
	for _, c := range d.Cells {
		if l.Cell(c.TypeName).IsSequential() {
			if c.Pin("CK").Net == nil {
				t.Fatalf("FF %s has no clock", c.Name)
			}
			if c.Pin("D").Net == nil {
				t.Fatalf("FF %s has no data", c.Name)
			}
		}
	}
}

func TestBlockClockTreeReachesAllFFs(t *testing.T) {
	l := lib(t)
	d := Block(l, BlockSpec{Name: "ck", Inputs: 4, Outputs: 4, FFs: 64, Gates: 200, Seed: 3, ClockBufferLevels: 3})
	clk := d.Port("clk")
	// BFS from clk through BUFs must reach 64 CK pins.
	reached := 0
	var visit func(n *netlist.Net)
	seen := map[*netlist.Net]bool{}
	visit = func(n *netlist.Net) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, load := range n.Loads {
			if load.Name == "CK" {
				reached++
			} else if load.Cell.Output() != nil && load.Cell.Output().Net != nil {
				visit(load.Cell.Output().Net)
			}
		}
	}
	visit(clk.Net)
	if reached != 64 {
		t.Errorf("clock reaches %d FFs, want 64", reached)
	}
}

func TestNamedBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("large generators in -short")
	}
	l := lib(t)
	for _, mk := range []struct {
		name string
		fn   func(*liberty.Library) *netlist.Design
		min  int
	}{
		{"c5315", C5315, 2300},
		{"c7552", C7552, 3500},
		{"soc", SoCBlock, 3000},
	} {
		d := mk.fn(l)
		if errs := d.Validate(); len(errs) != 0 {
			t.Fatalf("%s invalid: %v", mk.name, errs[0])
		}
		if got := len(d.Cells); got < mk.min {
			t.Errorf("%s: %d cells, want >= %d", mk.name, got, mk.min)
		}
	}
}

func TestSimulatorChain(t *testing.T) {
	l := lib(t)
	d := Chain(l, ChainSpec{Stages: 3, Gate: "INV"}) // odd inverter chain
	sim, err := NewSimulator(d, l)
	if err != nil {
		t.Fatal(err)
	}
	st := State{d.Cell("ff_launch"): true}
	val, next := sim.Eval(map[string]bool{"din": false}, st)
	outs := sim.Outputs(val)
	// dout reflects capture FF's Q (false initially) — but the capture
	// FF's next state is the inverted chain output of launch Q=true.
	if outs["dout"] {
		t.Error("dout should be capture-FF state (false)")
	}
	if got := next[d.Cell("ff_capture")]; got != false {
		// 3 inversions of true = false.
		t.Errorf("capture next state = %v, want false", got)
	}
	if got := next[d.Cell("ff_launch")]; got != false {
		t.Errorf("launch next state should follow din=false, got %v", got)
	}
}

func TestSimulatorSequentialStep(t *testing.T) {
	l := lib(t)
	d := Chain(l, ChainSpec{Stages: 2, Gate: "INV"}) // even chain: identity
	sim, err := NewSimulator(d, l)
	if err != nil {
		t.Fatal(err)
	}
	// Clock the value through: din=true → launch → chain → capture → dout.
	st := State{}
	for cycle := 0; cycle < 3; cycle++ {
		var val map[*netlist.Net]bool
		val, st = sim.Eval(map[string]bool{"din": true}, st)
		_ = val
	}
	val, _ := sim.Eval(map[string]bool{"din": true}, st)
	if !sim.Outputs(val)["dout"] {
		t.Error("value did not propagate through the pipeline")
	}
}

func TestSimulatorRandomBlockStable(t *testing.T) {
	l := lib(t)
	d := Block(l, BlockSpec{Name: "s", Inputs: 8, Outputs: 8, FFs: 16, Gates: 300, Seed: 11})
	sim, err := NewSimulator(d, l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ins := map[string]bool{}
	for i := 0; i < 8; i++ {
		ins[d.Ports[1+i].Name] = rng.Intn(2) == 1
	}
	val1, next1 := sim.Eval(ins, State{})
	val2, next2 := sim.Eval(ins, State{})
	for n, v := range val1 {
		if val2[n] != v {
			t.Fatalf("evaluation not deterministic at net %s", n.Name)
		}
	}
	for c, v := range next1 {
		if next2[c] != v {
			t.Fatalf("next state not deterministic at %s", c.Name)
		}
	}
}

func TestAddCellUnknownMaster(t *testing.T) {
	l := lib(t)
	d := netlist.New("x")
	if _, err := AddCell(d, l, "u", "NOPE_X1_SVT"); err == nil {
		t.Error("unknown master accepted")
	}
}
