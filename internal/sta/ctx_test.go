package sta

import (
	"context"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
)

// A canceled RunCtx must fail fast, leave the analyzer recoverable, and a
// later plain Run must produce exactly the state an uninterrupted run would
// have.
func TestRunCtxCancellation(t *testing.T) {
	lib := testLib()
	_, a, err := incrTestDesign(lib, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.RunCtx(ctx); err == nil {
		t.Fatal("RunCtx with canceled context returned nil")
	}
	// The analyzer must not present half-propagated results.
	if len(a.EndpointSlacks(Setup)) != 0 {
		t.Fatal("canceled run left endpoint slacks visible")
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	// Reference: identical design, never canceled.
	_, ref, err := incrTestDesign(lib, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	compareState(t, a, ref, "run after canceled run")
}

// A canceled UpdateCtx must poison the incremental state so the next
// Update falls back to a full Run and converges to the correct answer.
func TestUpdateCtxCancellationFallsBack(t *testing.T) {
	lib := testLib()
	_, a, err := incrTestDesign(lib, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	// Retype one combinational cell in place.
	var retyped bool
	for _, c := range a.D.Cells {
		if v := vtSwapVariant(lib, c.TypeName); v != "" {
			c.SetType(v)
			a.InvalidateCell(c)
			retyped = true
			break
		}
	}
	if !retyped {
		t.Fatal("no retypeable cell in fixture")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.UpdateCtx(ctx); err == nil {
		t.Fatal("UpdateCtx with canceled context returned nil")
	}
	if !a.structDirty {
		t.Fatal("canceled update did not poison incremental state")
	}
	if err := a.Update(); err != nil {
		t.Fatal(err)
	}
	// Reference analyzer over the already-mutated design, fresh full run.
	ref, err := New(a.D, a.Cons, a.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	compareState(t, a, ref, "update after canceled update")
}

// Two keyed tables over two clones of one design must yield bit-identical
// timing even when one was routed along a different edit history first.
func TestKeyedNetBinderOrderIndependent(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	d1 := circuits.Block(lib, circuits.BlockSpec{
		Name: "kb", Inputs: 8, Outputs: 8, FFs: 24, Gates: 300,
		MaxDepth: 8, Seed: 11, ClockBufferLevels: 2,
		VtMix: [3]float64{0.2, 0.5, 0.3},
	})
	d2 := d1.Clone()

	b1 := NewKeyedNetBinder(stack, 42)
	b2 := NewKeyedNetBinder(stack, 42)
	// Skew table 2's history: first route a clone in which every net of
	// three or more loads has two of them split off behind a buffer. A
	// sequential-stream table would now assign different trees.
	skew := d2.Clone()
	for _, n := range append([]*netlist.Net(nil), skew.Nets...) {
		if n.Driver != nil && len(n.Loads) >= 3 {
			if _, err := skew.InsertBuffer(n, []*netlist.Pin{n.Loads[0], n.Loads[1]}, "BUF_X1_SVT"); err != nil {
				t.Fatal(err)
			}
		}
	}
	b2.Refresh(skew)

	mkRun := func(d *netlist.Design, binder *Parasitics) *Analyzer {
		cons := NewConstraints()
		cons.AddClock("clk", 600, d.Port("clk"))
		a, err := New(d, cons, Config{Lib: lib, Parasitics: binder, SI: DefaultSI(), Derate: DefaultAOCV(), MIS: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := mkRun(d1, b1)
	a2 := mkRun(d2, b2)
	compareState(t, a2, a1, "keyed binder clones")
}

// Re-routing after a fanout change must depend only on the new sink count:
// splitting a load off a net and moving it back restores the original tree
// bit-for-bit (a sequential-stream table would draw a fresh random tree).
func TestKeyedNetBinderRerouteRoundTrip(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "rr", Inputs: 6, Outputs: 6, FFs: 12, Gates: 150,
		MaxDepth: 7, Seed: 13, ClockBufferLevels: 2,
		VtMix: [3]float64{0, 0.5, 0.5},
	})
	binder := NewKeyedNetBinder(stack, 9)
	var target *netlist.Net
	for _, n := range d.Nets {
		if len(n.Loads) >= 3 && n.Driver != nil {
			target = n
			break
		}
	}
	if target == nil {
		t.Fatal("no high-fanout net in fixture")
	}
	binder.Refresh(d)
	before := binder.Tree(target)
	savedLoads := append([]*netlist.Pin(nil), target.Loads...)
	// Move two loads: the buffer's input pin replaces them, so the net's
	// sink count drops by one and the binder must re-route.
	moved := append([]*netlist.Pin(nil), target.Loads[:2]...)
	mark := d.NameMark()
	buf, err := d.InsertBuffer(target, moved, "BUF_X1_SVT")
	if err != nil {
		t.Fatal(err)
	}
	binder.Refresh(d)
	if shrunk := binder.Tree(target); shrunk == before {
		t.Fatal("fanout change did not re-route")
	}
	// Undo the insertion exactly.
	d.RemoveBuffer(buf, savedLoads)
	d.RewindNames(mark)
	binder.Refresh(d)
	after := binder.Tree(target)
	if len(after.Sinks) != len(before.Sinks) {
		t.Fatalf("restored tree has %d sinks, want %d", len(after.Sinks), len(before.Sinks))
	}
	// Same sink count + same name + same seed => identical tree values.
	for i := range before.R {
		if before.R[i] != after.R[i] || before.C[i] != after.C[i] {
			t.Fatalf("restored tree differs at node %d", i)
		}
	}
}
