package sta

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/parasitics"
)

// compareState asserts two analyzers over the same design hold bit-identical
// timing state: every vertex's arrivals, slews, depths and required times,
// plus the derived endpoint-slack lists and summary metrics.
func compareState(t *testing.T, got, want *Analyzer, ctx string) {
	t.Helper()
	if got.NumVerts() != want.NumVerts() {
		t.Fatalf("%s: vertex count %d vs %d", ctx, got.NumVerts(), want.NumVerts())
	}
	for i := 0; i < got.NumVerts(); i++ {
		g, w := got.snapshotFwd(i), want.snapshotFwd(i)
		if g != w {
			t.Fatalf("%s: forward state differs at %s:\n got  %+v\n want %+v",
				ctx, got.vname(i), g, w)
		}
		gr, wr := got.snapshotReq(i), want.snapshotReq(i)
		if gr != wr {
			t.Fatalf("%s: required state differs at %s:\n got  %+v\n want %+v",
				ctx, got.vname(i), gr, wr)
		}
	}
	for _, check := range []CheckKind{Setup, Hold} {
		if gs, ws := got.WorstSlack(check), want.WorstSlack(check); gs != ws {
			t.Fatalf("%s: WorstSlack(%v) %v vs %v", ctx, check, gs, ws)
		}
		ge, we := got.EndpointSlacks(check), want.EndpointSlacks(check)
		if !reflect.DeepEqual(ge, we) {
			t.Fatalf("%s: EndpointSlacks(%v) differ (%d vs %d entries)", ctx, check, len(ge), len(we))
		}
	}
	if gt, wt := got.TNS(Setup), want.TNS(Setup); gt != wt {
		t.Fatalf("%s: TNS %v vs %v", ctx, gt, wt)
	}
}

// fullConfig exercises every analysis feature that interacts with the
// levelized/parallel propagation: SI Miller caps, AOCV depth derates, MIS.
func fullConfig(lib *liberty.Library, stack *parasitics.Stack, seed int64, workers int) Config {
	return Config{
		Lib: lib, Parasitics: NewNetBinder(stack, seed),
		SI: DefaultSI(), Derate: DefaultAOCV(), MIS: true,
		Workers: workers,
	}
}

func incrTestDesign(lib *liberty.Library, seed int64) (*Constraints, *Analyzer, error) {
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "inc", Inputs: 10, Outputs: 10, FFs: 32, Gates: 420,
		MaxDepth: 9, Seed: seed, ClockBufferLevels: 2,
		VtMix: [3]float64{0.2, 0.5, 0.3},
	})
	cons := NewConstraints()
	cons.AddClock("clk", 600, d.Port("clk"))
	a, err := New(d, cons, fullConfig(lib, parasitics.Stack16(), seed, 1))
	return cons, a, err
}

// Parallel propagation must be bit-identical to serial: same design, same
// seed, Workers=1 vs Workers=4 (forced goroutine fan-out even on one CPU).
func TestParallelRunMatchesSerial(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	for _, seed := range []int64{3, 17} {
		d := circuits.Block(lib, circuits.BlockSpec{
			Name: "par", Inputs: 12, Outputs: 12, FFs: 48, Gates: 900,
			MaxDepth: 10, Seed: seed, ClockBufferLevels: 2,
			VtMix: [3]float64{0.2, 0.5, 0.3},
		})
		cons := NewConstraints()
		cons.AddClock("clk", 550, d.Port("clk"))
		serial, err := New(d, cons, fullConfig(lib, stack, seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := serial.Run(); err != nil {
			t.Fatal(err)
		}
		par, err := New(d, cons, fullConfig(lib, stack, seed, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := par.Run(); err != nil {
			t.Fatal(err)
		}
		compareState(t, par, serial, "parallel vs serial")
		// Re-running with reused buffers must not drift.
		if err := par.Run(); err != nil {
			t.Fatal(err)
		}
		compareState(t, par, serial, "parallel second run")
	}
}

// A warm full Run allocates the same objects however many of its level
// waves split: one gang per Run, its channel and Workers-1 helpers, and the
// three chunk functions it runs (buildNets', the two sweeps'). The two
// designs differ in depth, so in the number of waves that fan out. At one
// worker nothing fans out; the six objects are the Run's own.
func TestWarmParallelRunAllocations(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	waves := map[int]int{}
	for _, depth := range []int{10, 24} {
		d := circuits.Block(lib, circuits.BlockSpec{
			Name: "par", Inputs: 12, Outputs: 12, FFs: 48, Gates: 900,
			MaxDepth: depth, Seed: 3, ClockBufferLevels: 2,
			VtMix: [3]float64{0.2, 0.5, 0.3},
		})
		cons := NewConstraints()
		cons.AddClock("clk", 550, d.Port("clk"))
		for w, want := range map[int]float64{1: 6, 2: 12, 4: 14} {
			a, err := New(d, cons, fullConfig(lib, stack, 3, w))
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(5, func() { a.Run() }); got != want {
				t.Errorf("depth %d, workers %d: a warm Run allocates %v objects, want %v (%d parallel waves)",
					depth, w, got, want, a.stats.ParallelLevels)
			}
			if w > 1 {
				waves[depth] = int(a.stats.ParallelLevels)
			}
		}
	}
	if waves[10] < 40 || waves[24] <= waves[10] {
		t.Fatalf("parallel waves per Run %v: want at least 40 at depth 10 and more at depth 24", waves)
	}
}

// A structural Run leaves the incremental worklists in place: the first
// Update after it resizes them on their own storage, buckets included,
// instead of allocating a pair for the new graph. The first pad is where
// the marks outgrow their exact first size; the second fits.
func TestUpdateAfterRegraphKeepsWorklists(t *testing.T) {
	lib := testLib()
	_, a, err := incrTestDesign(lib, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := a.D
	rng := rand.New(rand.NewSource(7))
	update := func() {
		t.Helper()
		for swapped := 0; swapped < 3; {
			c := d.Cells[rng.Intn(len(d.Cells))]
			if to := vtSwapVariant(lib, c.TypeName); to != "" {
				c.SetType(to)
				a.InvalidateCell(c)
				swapped++
			}
		}
		if err := a.Update(); err != nil {
			t.Fatal(err)
		}
		if !a.ran || len(a.fwQ.mark) != a.NumVerts() || len(a.bwQ.buckets) != a.topo.numLevels() {
			t.Fatal("Update did not run incrementally on worklists sized to the graph")
		}
	}
	pad := func() {
		t.Helper()
		for _, n := range d.Nets {
			if n.Driver != nil && len(n.Loads) >= 2 {
				if _, err := d.InsertBuffer(n, n.Loads[:1], "BUF_X1_SVT"); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
	}
	storage := func() [4]any {
		return [4]any{unsafe.SliceData(a.fwQ.mark), unsafe.SliceData(a.fwQ.buckets),
			unsafe.SliceData(a.bwQ.mark), unsafe.SliceData(a.bwQ.buckets)}
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	update()
	pad()
	update()
	before := storage()
	pad()
	update()
	if after := storage(); after != before {
		t.Fatalf("the first Update after a structural Run replaced its worklists: %v -> %v", before, after)
	}
}

// vtSwapVariant returns an in-place retype target for c, stepping its Vt
// class (LVT->SVT->HVT->SVT...), or "" when none exists.
func vtSwapVariant(lib *liberty.Library, typeName string) string {
	m := lib.Cell(typeName)
	if m == nil || m.IsSequential() {
		return ""
	}
	var target liberty.VtClass
	switch m.Vt {
	case liberty.HVT:
		target = liberty.SVT
	case liberty.SVT:
		target = liberty.LVT
	default:
		target = liberty.SVT
	}
	v := lib.Variant(m, m.Drive, target)
	if v == nil {
		return ""
	}
	return v.Name
}

// Property: N random cell-swap edits followed by Update() match a fresh
// full Run() on the same netlist, over several rounds of compounding edits.
func TestIncrementalUpdateMatchesFullRun(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	for _, seed := range []int64{1, 9, 42} {
		cons, inc, err := incrTestDesign(lib, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Run(); err != nil {
			t.Fatal(err)
		}
		d := inc.D
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 6; round++ {
			swapped := 0
			for tries := 0; swapped < 5 && tries < 80; tries++ {
				c := d.Cells[rng.Intn(len(d.Cells))]
				to := vtSwapVariant(lib, c.TypeName)
				if to == "" {
					continue
				}
				c.SetType(to)
				inc.InvalidateCell(c)
				swapped++
			}
			if swapped == 0 {
				t.Fatalf("seed %d round %d: no swappable cells", seed, round)
			}
			if !inc.dirty() {
				t.Fatalf("seed %d round %d: analyzer not dirty after invalidation", seed, round)
			}
			if err := inc.Update(); err != nil {
				t.Fatal(err)
			}
			// Fresh analyzer + full Run over the same (edited) netlist. A
			// fresh binder with the same seed regenerates identical trees
			// because generation follows net order in both cases.
			fresh, err := New(d, cons, fullConfig(lib, stack, seed, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Run(); err != nil {
				t.Fatal(err)
			}
			compareState(t, inc, fresh, "incremental vs full run")
			// With nothing dirty, Update must be a no-op.
			if inc.dirty() {
				t.Fatal("dirty after Update")
			}
			if err := inc.Update(); err != nil {
				t.Fatal(err)
			}
			compareState(t, inc, fresh, "no-op update")
		}
	}
}

// Incremental updates must also be exact when the analyzer itself runs its
// waves in parallel.
func TestIncrementalUpdateParallelWorkers(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	const seed = 5
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "incp", Inputs: 10, Outputs: 10, FFs: 32, Gates: 420,
		MaxDepth: 9, Seed: seed, ClockBufferLevels: 2,
		VtMix: [3]float64{0.2, 0.5, 0.3},
	})
	cons := NewConstraints()
	cons.AddClock("clk", 600, d.Port("clk"))
	inc, err := New(d, cons, fullConfig(lib, stack, seed, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Run(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 3; round++ {
		for swapped, tries := 0, 0; swapped < 8 && tries < 100; tries++ {
			c := d.Cells[rng.Intn(len(d.Cells))]
			if to := vtSwapVariant(lib, c.TypeName); to != "" {
				c.SetType(to)
				inc.InvalidateCell(c)
				swapped++
			}
		}
		if err := inc.Update(); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(d, cons, fullConfig(lib, stack, seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Run(); err != nil {
			t.Fatal(err)
		}
		compareState(t, inc, fresh, "parallel incremental vs serial full")
	}
}

// Update on an analyzer that never ran falls back to a full Run.
func TestUpdateBeforeRunFallsBack(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	const seed = 2
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "fb", Inputs: 8, Outputs: 8, FFs: 16, Gates: 200,
		MaxDepth: 8, Seed: seed, ClockBufferLevels: 1,
	})
	cons := NewConstraints()
	cons.AddClock("clk", 600, d.Port("clk"))
	a, err := New(d, cons, fullConfig(lib, stack, seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Update(); err != nil {
		t.Fatal(err)
	}
	b, err := New(d, cons, fullConfig(lib, stack, seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	compareState(t, a, b, "update-before-run vs run")
}
