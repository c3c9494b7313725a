package sta_test

import (
	"math/rand"
	"testing"

	"newgame/internal/conformance"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
)

// A predecessor records which edge a vertex's worst arrival came through,
// not what it cost; the walker asks the delay rule again. On every worst
// path the arrivals must then close bit-exactly — each step's arrival is its
// source's plus the Delay the step reports — after a Run, after a resize
// absorbed by Update, and after a buffer re-derived the graph.
func TestWorstPathChargesTheForwardDelay(t *testing.T) {
	lib := conformance.Lib()
	for _, der := range []sta.Derater{sta.DefaultFlatOCV(), sta.DefaultAOCV(), sta.DefaultLVF()} {
		d, cons := sta.CheckFixture(lib, "gated", 5)
		a, err := sta.New(d, cons, sta.Config{Lib: lib, Parasitics: sta.NewKeyedNetBinder(parasitics.Stack16(), 5), SI: sta.DefaultSI(), Derate: der, MIS: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		check := func(ctx string) {
			t.Helper()
			for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
				ps := a.WorstPaths(kind, a.Summary(kind).Endpoints)
				if len(ps) == 0 {
					t.Fatalf("%T %s: no %v paths", der, ctx, kind)
				}
				for _, p := range ps {
					for k := 1; k < len(p.Steps); k++ {
						if got, want := p.Steps[k].Arrival, p.Steps[k-1].Arrival+p.Steps[k].Delay; got != want {
							t.Fatalf("%T %s: %v path into %s step %d (%s): arrival %v, source %v + delay %v = %v",
								der, ctx, kind, p.Endpoint.Name(), k, p.Steps[k].Name, got, p.Steps[k-1].Arrival, p.Steps[k].Delay, want)
						}
					}
				}
			}
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		check("Run")

		// Upsize the combinational cells on the worst setup path in place.
		resized := 0
		for _, st := range a.WorstPaths(sta.Setup, 1)[0].Steps {
			if !st.IsCell || st.Cell == nil {
				continue
			}
			m := lib.Cell(st.Cell.TypeName)
			if m.IsSequential() {
				continue
			}
			for _, drive := range lib.Drives(m.Function) {
				if v := lib.Variant(m, drive, m.Vt); drive > m.Drive && v != nil {
					st.Cell.SetType(v.Name)
					a.InvalidateCell(st.Cell)
					resized++
					break
				}
			}
		}
		if resized == 0 {
			t.Fatalf("%T: nothing on the worst path to resize", der)
		}
		if err := a.Update(); err != nil {
			t.Fatal(err)
		}
		check("resize + Update")

		n := drivenNet(rand.New(rand.NewSource(5)), d, 2)
		insertBuffer(t, d, n, n.Loads[:1])
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		check("buffer + Run")
	}
}

// What one analyzer costs per vertex, held from above: New + Run with a warm
// binder allocate the graph, the per-vertex planes and the per-net delay
// cache, and nothing per relaxation. 686 B at the 48-byte predecessor, 522 at
// the 8-byte one, 394 with one value slab for the net cache, arc groups sized
// exactly and no per-vertex pointers.
func TestAnalyzerBytesPerVertex(t *testing.T) {
	lib := conformance.Lib()
	d, cons := sta.CheckFixture(lib, "gated", 5)
	cfg := sta.Config{Lib: lib, Parasitics: sta.NewKeyedNetBinder(parasitics.Stack16(), 5), SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), Workers: 1}
	var a *sta.Analyzer
	build := func() {
		var err error
		if a, err = sta.New(d, cons, cfg); err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
	}
	build() // warms the binder: every net's tree is made once
	perVertex := float64(sta.LeastAlloc(build)) / float64(a.NumVerts())
	t.Logf("New + Run: %.0f B per vertex over %d vertices", perVertex, a.NumVerts())
	if perVertex > 433 {
		t.Fatalf("New + Run allocates %.0f B per vertex, want ≤ 433", perVertex)
	}
}
