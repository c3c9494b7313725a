package sta

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/parasitics"
)

// Recording must not perturb analysis: an instrumented analyzer running
// incremental updates across parallel waves matches a bare serial full Run
// bit-for-bit, and the recorder ends up holding the advertised metrics —
// the full-Run-fallback counter, incremental-update counter, cone-size
// histogram and level-width histogram.
func TestRecordingDoesNotPerturbAnalysis(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	const seed = 11
	rec := obs.NewRecorder()

	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "obs", Inputs: 10, Outputs: 10, FFs: 32, Gates: 420,
		MaxDepth: 9, Seed: seed, ClockBufferLevels: 2,
		VtMix: [3]float64{0.2, 0.5, 0.3},
	})
	cons := NewConstraints()
	cons.AddClock("clk", 600, d.Port("clk"))
	cfg := fullConfig(lib, stack, seed, 4)
	cfg.Obs = rec
	inc, err := New(d, cons, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Update before Run falls back to a full Run and counts it.
	if err := inc.Update(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("sta.update.full_run_fallback").Value(); got != 1 {
		t.Fatalf("full_run_fallback = %d, want 1", got)
	}

	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 4; round++ {
		swapped := 0
		for tries := 0; swapped < 5 && tries < 80; tries++ {
			c := d.Cells[rng.Intn(len(d.Cells))]
			if to := vtSwapVariant(lib, c.TypeName); to != "" {
				c.SetType(to)
				inc.InvalidateCell(c)
				swapped++
			}
		}
		if swapped == 0 {
			t.Fatalf("round %d: no swappable cells", round)
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
		compareState(t, inc, fresh, "recorded incremental vs bare full run")
	}

	if got := rec.Counter("sta.update.incremental").Value(); got != 4 {
		t.Fatalf("incremental update counter = %d, want 4", got)
	}
	if rec.Counter("sta.update.vertices_recomputed").Value() == 0 {
		t.Fatal("vertices_recomputed counter never incremented")
	}
	if rec.Histogram("sta.update.cone_vertices").Count() != 4 {
		t.Fatalf("cone_vertices histogram n = %d, want 4", rec.Histogram("sta.update.cone_vertices").Count())
	}
	// Per-run stats publish exactly once per full Run: one widest-wave
	// observation for the single fallback Run (incremental updates add to
	// the counters but never re-observe the wave shape).
	if got := rec.Histogram("sta.run.widest_wave").Count(); got != 1 {
		t.Fatalf("widest_wave histogram n = %d, want 1 (one full Run)", got)
	}
	if rec.Counter("sta.run.nodes_relaxed").Value() == 0 {
		t.Fatal("nodes_relaxed counter never incremented")
	}
	if rec.Counter("sta.run.nets_filled").Value() == 0 {
		t.Fatal("nets_filled counter never incremented")
	}
	if rec.Gauge("sta.graph_vertices").Value() == 0 {
		t.Fatal("graph_vertices gauge never set")
	}
	st := inc.LastRunStats()
	if st.NodesRelaxed == 0 {
		t.Fatal("LastRunStats nodes relaxed = 0 after updates")
	}

	// The JSON dump carries the acceptance-critical keys.
	var b bytes.Buffer
	if err := rec.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
		Spans      map[string]struct {
			Count int `json:"count"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if _, ok := dump.Counters["sta.update.full_run_fallback"]; !ok {
		t.Fatal("full_run_fallback missing from metrics dump")
	}
	if _, ok := dump.Histograms["sta.update.cone_vertices"]; !ok {
		t.Fatal("cone_vertices histogram missing from metrics dump")
	}
	if dump.Spans["sta.run"].Count == 0 {
		t.Fatal("no sta.run spans recorded")
	}
	if dump.Spans["sta.update"].Count != 4 {
		t.Fatalf("sta.update spans = %d, want 4", dump.Spans["sta.update"].Count)
	}
}

// The graph gauges follow the graph and every graph step is counted: New's
// own derivation is not a regraph, a buffer is patched in, not re-derived
// (sta.topologies_patched), and an analyzer that takes up the patched
// topology counts an adoption.
func TestRegraphIsObservable(t *testing.T) {
	lib := testLib()
	rec := obs.NewRecorder()
	d, cons := checkFixture(lib, "ports", 11)
	first, err := New(d, cons, Config{Lib: lib, Workers: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	cfg := first.Cfg
	cfg.Topology = first.Topology()
	second, err := New(d, cons, cfg)
	if err != nil {
		t.Fatal(err)
	}
	regraphs, shared, verts := rec.Counter("sta.run.regraphs"), rec.Counter("sta.topology_shared"), rec.Gauge("sta.graph_vertices")
	for _, a := range []*Analyzer{first, second} {
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if regraphs.Value() != 0 || shared.Value() != 1 || verts.Value() != float64(first.NumVerts()) {
		t.Fatalf("before any edit: regraphs %d, adoptions %d, graph_vertices %v (graph has %d)",
			regraphs.Value(), shared.Value(), verts.Value(), first.NumVerts())
	}
	for _, n := range d.Nets {
		if n.Driver != nil && len(n.Loads) >= 2 {
			if _, err := d.InsertBuffer(n, []*netlist.Pin{n.Loads[0]}, "BUF_X1_SVT"); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	before := first.NumVerts()
	if err := first.Run(); err != nil {
		t.Fatal(err)
	}
	second.Cfg.Topology = first.Topology()
	if err := second.Update(); err != nil { // patches its tables, adopts first's topology
		t.Fatal(err)
	}
	if first.NumVerts() != before+2 || !second.SharedTopology() || first.SharedTopology() {
		t.Fatalf("after the buffer: %d vertices (had %d), second shares = %v, first shares = %v",
			first.NumVerts(), before, second.SharedTopology(), first.SharedTopology())
	}
	patched := rec.Counter("sta.topologies_patched")
	if regraphs.Value() != 0 || patched.Value() != 1 || shared.Value() != 2 || verts.Value() != float64(before+2) ||
		rec.Gauge("sta.graph_levels").Value() != float64(first.Topology().numLevels()) {
		t.Fatalf("after the buffer: regraphs %d, patches %d, adoptions %d, graph_vertices %v, want 0, 1, 2, %d",
			regraphs.Value(), patched.Value(), shared.Value(), verts.Value(), before+2)
	}
}
