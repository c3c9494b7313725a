package sta_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"newgame/internal/conformance"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/opt"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
)

func insertBuffer(t testing.TB, d *netlist.Design, n *netlist.Net, moved []*netlist.Pin) *conformance.BufferEdit {
	t.Helper()
	e, err := conformance.InsertBuffer(d, n, moved, "BUF_X1_SVT")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// drivenNet picks, in rng order, a cell-driven net with at least min loads.
func drivenNet(rng *rand.Rand, d *netlist.Design, min int) *netlist.Net {
	for _, i := range rng.Perm(len(d.Nets)) {
		if n := d.Nets[i]; n.Driver != nil && len(n.Loads) >= min {
			return n
		}
	}
	return nil
}

// retype steps the Vt class of n random combinational cells in place and
// returns them.
func retype(rng *rand.Rand, lib *liberty.Library, d *netlist.Design, n int) []*netlist.Cell {
	var out []*netlist.Cell
	for tries := 0; len(out) < n && tries < 200; tries++ {
		c := d.Cells[rng.Intn(len(d.Cells))]
		if to := sta.VtSwapVariant(lib, c.TypeName); to != "" {
			c.SetType(to)
			out = append(out, c)
		}
	}
	return out
}

func assertEqualsFresh(t *testing.T, kept *sta.Analyzer, ctx string) {
	t.Helper()
	fresh, err := sta.New(kept.D, kept.Cons, kept.Cfg)
	if err != nil {
		t.Fatalf("%s: fresh New: %v", ctx, err)
	}
	if err := fresh.Run(); err != nil {
		t.Fatalf("%s: fresh Run: %v", ctx, err)
	}
	if k, f := conformance.Fingerprint(kept), conformance.Fingerprint(fresh); k != f {
		t.Fatalf("%s: kept analyzer's state %s, a fresh New+Run's %s", ctx, k[:16], f[:16])
	}
	for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
		if !reflect.DeepEqual(kept.EndpointSlacks(kind), fresh.EndpointSlacks(kind)) {
			t.Fatalf("%s: %v endpoint lists differ", ctx, kind)
		}
		if k, f := kept.Summary(kind), fresh.Summary(kind); k != f {
			t.Fatalf("%s: %v summary %+v, fresh %+v", ctx, kind, k, f)
		}
	}
}

// One analyzer lives through everything a netlist can do to it: buffers
// inserted (chained, as hold padding chains them), taken out again by
// timingd's exact undo so the graph shrinks, a cts-style AddCell+Connect
// regrouping, and in-place retypes — re-timed by Run or by Update, whichever
// the step draws. After every re-time it must be indistinguishable from an
// analyzer built from nothing over the same netlist.
func TestRunAbsorbsStructuralEdits(t *testing.T) {
	lib := conformance.Lib()
	stack := parasitics.Stack16()
	deraters := []sta.Derater{sta.NoDerate{}, sta.DefaultFlatOCV(), sta.DefaultAOCV(), sta.DefaultPOCV(), sta.DefaultLVF()}
	const seed = 17
	var did [4]int
	for _, name := range []string{"gated", "ports"} {
		for _, wire := range []sta.WireModel{sta.WireElmore, sta.WireD2M} {
			for _, si := range []bool{false, true} {
				for _, der := range deraters {
					for _, workers := range []int{1, 4} {
						cfgName := fmt.Sprintf("%s wire=%d si=%v derate=%T workers=%d", name, wire, si, der, workers)
						d, cons := sta.CheckFixture(lib, name, seed)
						cfg := sta.Config{Lib: lib, Parasitics: sta.NewKeyedNetBinder(stack, seed), Wire: wire, Derate: der, MIS: true, Workers: workers}
						if si {
							cfg.SI = sta.DefaultSI()
						}
						a, err := sta.New(d, cons, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := a.Run(); err != nil {
							t.Fatal(err)
						}
						rng := rand.New(rand.NewSource(seed))
						var stack []*conformance.BufferEdit
						for step := 0; step < 14; step++ {
							op := rng.Intn(4)
							if op == 1 && len(stack) == 0 {
								op = 0
							}
							did[op]++
							ctx := fmt.Sprintf("%s step %d", cfgName, step)
							switch op {
							case 0: // insert: a fresh net, or a pad chained onto the last buffer's input
								n := drivenNet(rng, d, 2)
								moved := n.Loads[:1+rng.Intn(len(n.Loads)-1)]
								if len(stack) > 0 && rng.Intn(2) == 0 {
									in := stack[len(stack)-1].Buf.Pin("A")
									n, moved = in.Net, []*netlist.Pin{in}
								}
								stack = append(stack, insertBuffer(t, d, n, moved))
								ctx += " insert"
							case 1:
								stack[len(stack)-1].Undo(d)
								stack = stack[:len(stack)-1]
								ctx += " undo"
							case 2: // regroup a net's loads behind a new cell, the way cts builds a level
								// It cannot be undone, so every pending buffer goes first:
								// several structural edits behind one re-time.
								for ; len(stack) > 0; stack = stack[:len(stack)-1] {
									stack[len(stack)-1].Undo(d)
								}
								n := drivenNet(rng, d, 2)
								loads := append([]*netlist.Pin(nil), n.Loads...)
								for _, p := range loads {
									d.Disconnect(p)
								}
								buf, err := d.AddCell(d.FreshName("ctsbuf"), "BUF_X2_SVT", netlist.In("A"), netlist.Out("Z"))
								if err != nil {
									t.Fatal(err)
								}
								net, err := d.AddNet(d.FreshName("ctsnet"))
								if err != nil {
									t.Fatal(err)
								}
								for _, c := range append([]*netlist.Pin{buf.Pin("Z")}, loads...) {
									if err := d.Connect(c.Cell, c.Name, net); err != nil {
										t.Fatal(err)
									}
								}
								if err := d.Connect(buf, "A", n); err != nil {
									t.Fatal(err)
								}
								ctx += " regroup"
							}
							// Every step also retypes, flagged or not: Update must
							// absorb both halves, Run never needed the flags.
							for _, c := range retype(rng, lib, d, 3) {
								if step%2 == 1 {
									a.InvalidateCell(c)
								}
							}
							if step%2 == 1 {
								err = a.Update()
								ctx += " (Update)"
							} else {
								err = a.Run()
								ctx += " (Run)"
							}
							if err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							assertEqualsFresh(t, a, ctx)
						}
					}
				}
			}
		}
	}
	for op, n := range did {
		if n == 0 {
			t.Fatalf("script never drew op %d: %v", op, did)
		}
	}
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A structural edit is answered on the analyzer's own storage: once the
// slabs have grown to fit, an insert and its removal, each fully re-timed,
// cost a fraction of building one analyzer — what is left is two new
// Topologies (four fifths of it; they cannot be built in place because a
// Topology may be shared) and the two re-routed nets' trees.
func TestRegraphReusesStorage(t *testing.T) {
	lib := conformance.Lib()
	d, cons := sta.CheckFixture(lib, "gated", 5)
	cfg := sta.Config{Lib: lib, Parasitics: sta.NewKeyedNetBinder(parasitics.Stack16(), 5), SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), Workers: 1}
	a, err := sta.New(d, cons, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := drivenNet(rand.New(rand.NewSource(5)), d, 2)
	cycle := func() {
		e := insertBuffer(t, d, n, n.Loads[:1])
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		e.Undo(d)
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	cycle() // warm-up: the slabs outgrow their exact first size once
	inPlace := allocated(cycle)
	fresh := allocated(func() {
		f, err := sta.New(d, cons, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if 4*inPlace >= fresh {
		t.Fatalf("insert+Run+undo+Run allocates %d bytes, New+Run %d: want under a quarter", inPlace, fresh)
	}
	assertEqualsFresh(t, a, "after the cycles")
}

// Every buffer what-if makes a net and its rollback removes it; an analyzer
// that outlives any number of them holds one cache entry per net it has.
func TestRegraphPrunesNets(t *testing.T) {
	lib := conformance.Lib()
	d, cons := sta.CheckFixture(lib, "ports", 5)
	a, err := sta.New(d, cons, sta.Config{Lib: lib, Parasitics: sta.NewKeyedNetBinder(parasitics.Stack16(), 5), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		n := drivenNet(rng, d, 1)
		e := insertBuffer(t, d, n, n.Loads[:1])
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if got := a.NetCacheLen(); got != len(d.Nets) {
			t.Fatalf("cycle %d after insert: %d cached nets, design has %d", i, got, len(d.Nets))
		}
		e.Undo(d)
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if got := a.NetCacheLen(); got != len(d.Nets) {
			t.Fatalf("cycle %d after undo: %d cached nets, design has %d", i, got, len(d.Nets))
		}
	}
	assertEqualsFresh(t, a, "after 200 cycles")
}

// Run can now fail where only New could. A failed re-derivation must leave
// nothing behind that is indexed into the old numbering: no checks, no
// summary, no pin that resolves — and the next Run, once the netlist is
// valid again, is a fresh analysis.
func TestFailedRegraphLeavesAnalyzerUnrun(t *testing.T) {
	lib := conformance.Lib()
	d, cons := sta.CheckFixture(lib, "ports", 5)
	a, err := sta.New(d, cons, sta.Config{Lib: lib, Parasitics: sta.NewKeyedNetBinder(parasitics.Stack16(), 5), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	assertUnrun := func(ctx string) {
		t.Helper()
		for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
			if a.EndpointSlacks(kind) != nil {
				t.Fatalf("%s: %v endpoint list survives a failed Run", ctx, kind)
			}
			if s := a.Summary(kind); s != (sta.CheckSummary{Worst: math.Inf(1)}) {
				t.Fatalf("%s: %v summary %+v survives a failed Run", ctx, kind, s)
			}
			if a.WorstPaths(kind, 5) != nil {
				t.Fatalf("%s: %v paths survive a failed Run", ctx, kind)
			}
			_, _ = a.WNS(kind), a.TNS(kind)
		}
		// None of these may index a plane sized for another numbering.
		for _, c := range d.Cells {
			for _, p := range c.Pins {
				a.PinArrival(p, 0, 1)
				a.PinSlew(p, 1, 0)
				a.PinSetupSlack(p)
			}
			a.CellSetupSlack(c)
		}
		for _, p := range d.Ports {
			a.PortArrival(p, 0, 1)
			a.PortSlew(p, 0, 1)
			a.PortSetupSlack(p)
		}
		for _, n := range d.Nets {
			a.NetLoad(n)
		}
		if len(a.DRCViolations())+len(a.NoiseViolations()) != 0 {
			t.Fatalf("%s: violations reported by an analyzer that has not run", ctx)
		}
		_ = a.String()
	}

	// An unknown master together with a buffer: the graph must be re-derived
	// and cannot be.
	victim := d.Cells[len(d.Cells)/2]
	old := victim.TypeName
	n := drivenNet(rand.New(rand.NewSource(5)), d, 2)
	e := insertBuffer(t, d, n, n.Loads[:1])
	victim.SetType("NO_SUCH_MASTER")
	if err := a.Run(); err == nil {
		t.Fatal("Run accepted an unknown master")
	}
	assertUnrun("unknown master + buffer")
	if err := a.Update(); err == nil {
		t.Fatal("Update accepted an unknown master")
	}
	assertUnrun("unknown master + buffer, again")
	victim.SetType(old)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	assertEqualsFresh(t, a, "after reverting the master")

	// An unknown master alone: no graph to re-derive, the same error.
	victim.SetType("NO_SUCH_MASTER")
	if err := a.Run(); err == nil {
		t.Fatal("Run accepted an unknown master")
	}
	assertUnrun("unknown master")
	victim.SetType(old)
	e.Undo(d)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	assertEqualsFresh(t, a, "after reverting the master and the buffer")

	// A combinational cycle: fails in levelization, after the vertex table
	// has already been rewritten.
	var comb *netlist.Cell
	for _, c := range d.Cells {
		if m := lib.Cell(c.TypeName); !m.IsSequential() && m.Gate == nil && c.Output() != nil && c.Output().Net != nil && len(c.Inputs()) > 0 && c.Inputs()[0].Net != nil {
			comb = c
			break
		}
	}
	in := comb.Inputs()[0]
	was := in.Net
	d.Disconnect(in)
	if err := d.Connect(comb, in.Name, comb.Output().Net); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err == nil {
		t.Fatal("Run accepted a combinational cycle")
	}
	assertUnrun("cycle")
	d.Disconnect(in)
	if err := d.Connect(comb, in.Name, was); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	assertEqualsFresh(t, a, "after breaking the cycle")
}

// What the graph does not hold reads as absent — never as whatever sits at
// the same number — and invalidating it costs a full Run: the objects of a
// Clone, a cell and net added since the last Run, a cell and net a mid-list
// removal renumbered, and the removed ones themselves.
func TestObjectsOutsideTheGraph(t *testing.T) {
	lib := conformance.Lib()
	// removeMid bypasses a single-input cell in the middle of d.Cells the
	// way RemoveBuffer undoes a buffer: its loads move to its input net, and
	// the cell and its output net leave the middle of d.Cells and d.Nets.
	removeMid := func(d *netlist.Design) (gone *netlist.Cell, goneNet *netlist.Net, next *netlist.Cell, nextNet *netlist.Net) {
		for i := len(d.Cells) / 2; ; i++ {
			c := d.Cells[i]
			if m := lib.Cell(c.TypeName); m.IsSequential() || m.Gate != nil || len(c.Pins) != 2 || c.Output().Net.Port != nil {
				continue
			}
			gone, goneNet, next = c, c.Output().Net, d.Cells[i+1]
			nextNet = d.Nets[goneNet.Index()+1]
			break
		}
		in := gone.Pin("A")
		var loads []*netlist.Pin
		for _, l := range in.Net.Loads {
			if l != in {
				loads = append(loads, l)
			}
		}
		d.RemoveBuffer(gone, append(loads, goneNet.Loads...))
		if goneNet.Index() != -1 {
			t.Fatal("the bypassed cell's output net is still in the design")
		}
		return
	}
	cases := []struct {
		name string
		// edit returns a cell and a net the analyzer's graph does not hold.
		edit func(d *netlist.Design) (*netlist.Cell, *netlist.Net)
	}{
		{"another Clone's", func(d *netlist.Design) (*netlist.Cell, *netlist.Net) {
			c := d.Clone()
			return c.Cells[len(c.Cells)/2], drivenNet(rand.New(rand.NewSource(3)), c, 2)
		}},
		{"added after the Run", func(d *netlist.Design) (*netlist.Cell, *netlist.Net) {
			n := drivenNet(rand.New(rand.NewSource(3)), d, 2)
			buf := insertBuffer(t, d, n, n.Loads[:1]).Buf
			return buf, buf.Pin("Z").Net
		}},
		{"renumbered by a mid-list removal", func(d *netlist.Design) (*netlist.Cell, *netlist.Net) {
			_, _, next, nextNet := removeMid(d)
			return next, nextNet
		}},
		{"removed mid-list", func(d *netlist.Design) (*netlist.Cell, *netlist.Net) {
			gone, goneNet, _, _ := removeMid(d)
			return gone, goneNet
		}},
	}
	for _, tc := range cases {
		for _, byNet := range []bool{false, true} {
			d, cons := sta.CheckFixture(lib, "ports", 5)
			rec := obs.NewRecorder()
			a, err := sta.New(d, cons, sta.Config{Lib: lib, Parasitics: sta.NewKeyedNetBinder(parasitics.Stack16(), 5), Workers: 1, Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
			c, n := tc.edit(d)
			for _, p := range c.Pins {
				if _, ok := a.PinArrival(p, 0, 1); ok {
					t.Fatalf("%s: PinArrival(%s) answers", tc.name, p.FullName())
				}
				if _, ok := a.PinSlew(p, 0, 1); ok {
					t.Fatalf("%s: PinSlew(%s) answers", tc.name, p.FullName())
				}
				if s := a.PinSetupSlack(p); !math.IsInf(s, 1) {
					t.Fatalf("%s: PinSetupSlack(%s) = %v, want +Inf", tc.name, p.FullName(), s)
				}
			}
			if s := a.CellSetupSlack(c); !math.IsInf(s, 1) {
				t.Fatalf("%s: CellSetupSlack = %v, want +Inf", tc.name, s)
			}
			if l := a.NetLoad(n); l != 0 {
				t.Fatalf("%s: NetLoad(%s) = %v, want 0", tc.name, n.Name, l)
			}
			if byNet {
				a.InvalidateNet(n)
			} else {
				a.InvalidateCell(c)
			}
			fallbacks := rec.Counter("sta.update.full_run_fallback")
			before := fallbacks.Value()
			if err := a.Update(); err != nil {
				t.Fatal(err)
			}
			if got := fallbacks.Value() - before; got != 1 {
				t.Fatalf("%s (byNet=%v): Update fell back to a full Run %d times, want 1", tc.name, byNet, got)
			}
			assertEqualsFresh(t, a, tc.name)
		}
	}
}

// Update fills and seeds in invalidation order, and what it computes does
// not depend on that order: the same retypes and one NDR flagged forwards on
// one analyzer and backwards on another leave equal state and equal work.
func TestUpdateIsOrderDeterministic(t *testing.T) {
	lib := conformance.Lib()
	d, cons := sta.CheckFixture(lib, "ports", 5)
	trees := sta.NewKeyedNetBinder(parasitics.Stack16(), 5)
	rec := obs.NewRecorder()
	var as [2]*sta.Analyzer
	for i := range as {
		a, err := sta.New(d, cons, sta.Config{Lib: lib, Parasitics: trees, SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), MIS: true, Workers: 1, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		as[i] = a
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ {
		cells := retype(rng, lib, d, 6)
		var ndr *netlist.Net
		for _, i := range rng.Perm(len(d.Nets)) {
			if n := d.Nets[i]; n.Driver != nil && len(n.Loads) >= 2 && !trees.HasNDR(n) && trees.Tree(n) != nil {
				ndr = n
				break
			}
		}
		trees.SetNDR(ndr, opt.WideSpaced)
		as[0].InvalidateNet(ndr)
		for _, c := range cells {
			as[0].InvalidateCell(c)
		}
		for i := len(cells) - 1; i >= 0; i-- {
			as[1].InvalidateCell(cells[i])
		}
		as[1].InvalidateNet(ndr)
		for _, a := range as {
			if err := a.Update(); err != nil {
				t.Fatal(err)
			}
		}
		if f0, f1 := conformance.Fingerprint(as[0]), conformance.Fingerprint(as[1]); f0 != f1 {
			t.Fatalf("round %d: fingerprints %s and %s", round, f0[:16], f1[:16])
		}
		if s0, s1 := as[0].LastRunStats(), as[1].LastRunStats(); s0 != s1 || s0.NetsFilled == 0 {
			t.Fatalf("round %d: stats %+v and %+v", round, s0, s1)
		}
		assertEqualsFresh(t, as[0], fmt.Sprintf("round %d", round))
	}
	if n := rec.Counter("sta.update.full_run_fallback").Value(); n != 0 {
		t.Fatalf("%d Updates fell back to a full Run; the test means to compare incremental ones", n)
	}
}
