package sta

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
)

// bufferScript draws buffer edits the way the fix passes and the what-if
// rollback make them: a pad on a random net's loads, a pad chained onto the
// last buffer's input, or the newest buffer taken out again (RemoveBuffer
// with the loads saved before its insert).
type bufferScript struct {
	rng   *rand.Rand
	d     *netlist.Design
	stack []struct {
		buf   *netlist.Cell
		saved []*netlist.Pin
	}
}

func (s *bufferScript) step(t testing.TB) string {
	t.Helper()
	if len(s.stack) > 0 && s.rng.Intn(3) == 0 {
		e := s.stack[len(s.stack)-1]
		s.d.RemoveBuffer(e.buf, e.saved)
		s.stack = s.stack[:len(s.stack)-1]
		return "remove"
	}
	var n *netlist.Net
	var moved []*netlist.Pin
	if len(s.stack) > 0 && s.rng.Intn(2) == 0 {
		in := s.stack[len(s.stack)-1].buf.Pin("A")
		n, moved = in.Net, []*netlist.Pin{in}
	} else {
		for _, i := range s.rng.Perm(len(s.d.Nets)) {
			if c := s.d.Nets[i]; len(c.Loads) > 0 && (c.Driver != nil || c.Port != nil) {
				n = c
				break
			}
		}
		for _, i := range s.rng.Perm(len(n.Loads))[:1+s.rng.Intn(len(n.Loads))] {
			moved = append(moved, n.Loads[i])
		}
	}
	saved := append([]*netlist.Pin(nil), n.Loads...)
	buf, err := s.d.InsertBuffer(n, moved, "BUF_X1_SVT")
	if err != nil {
		t.Fatal(err)
	}
	s.stack = append(s.stack, struct {
		buf   *netlist.Cell
		saved []*netlist.Pin
	}{buf, saved})
	return fmt.Sprintf("insert %d", len(moved))
}

// topoSnapshot deep-copies what a Topology holds.
type topoSnapshot struct {
	kind                                      []uint8
	cellOf, succOff, succ, faninDriver, level []int32
	faninSink, netDriver                      []int32
	clockPath, isCKPin                        []bool
}

func snapshotTopology(t *Topology) topoSnapshot {
	return topoSnapshot{
		kind: slices.Clone(t.kind), cellOf: slices.Clone(t.cellOf),
		succOff: slices.Clone(t.succOff), succ: slices.Clone(t.succ),
		faninDriver: slices.Clone(t.faninDriver), faninSink: slices.Clone(t.faninSink),
		netDriver: slices.Clone(t.netDriver), level: slices.Clone(t.level),
		clockPath: slices.Clone(t.clockPath), isCKPin: slices.Clone(t.isCKPin),
	}
}

func (s topoSnapshot) equal(t *Topology) bool {
	return slices.Equal(s.kind, t.kind) && slices.Equal(s.cellOf, t.cellOf) &&
		slices.Equal(s.succOff, t.succOff) && slices.Equal(s.succ, t.succ) &&
		slices.Equal(s.faninDriver, t.faninDriver) && slices.Equal(s.faninSink, t.faninSink) &&
		slices.Equal(s.netDriver, t.netDriver) && slices.Equal(s.level, t.level) &&
		slices.Equal(s.clockPath, t.clockPath) && slices.Equal(s.isCKPin, t.isCKPin)
}

// builtTopology is what buildTopologyCSR derives over a's numbering, without
// counting it.
func builtTopology(t *testing.T, a *Analyzer) *Topology {
	t.Helper()
	c := a.obsTopoBuilt
	a.obsTopoBuilt = nil
	defer func() { a.obsTopoBuilt = c }()
	ref, err := a.buildTopologyCSR()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// diffTopology names the first way got differs from the derivation want.
func diffTopology(got, want *Topology) string {
	switch {
	case got.NumVerts() != want.NumVerts() || got.numCells != want.numCells ||
		got.numNets != want.numNets || got.numPorts != want.numPorts || got.baseCells != want.baseCells:
		return fmt.Sprintf("shape %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
			got.NumVerts(), got.numCells, got.numNets, got.numPorts, got.baseCells,
			want.NumVerts(), want.numCells, want.numNets, want.numPorts, want.baseCells)
	case !slices.Equal(got.kind, want.kind) || !slices.Equal(got.cellOf, want.cellOf) ||
		!slices.Equal(got.isCKPin, want.isCKPin) || !slices.Equal(got.masters, want.masters):
		return "vertex kinds, cells, clock pins or masters"
	case !slices.Equal(got.clockPath, want.clockPath) || !slices.Equal(got.clockRoots, want.clockRoots):
		return "clock marking"
	case !slices.Equal(got.faninDriver, want.faninDriver) || !slices.Equal(got.faninSink, want.faninSink) ||
		!slices.Equal(got.netDriver, want.netDriver):
		return "fanin arrays"
	case !slices.Equal(got.level, want.level) || got.nLevels != want.nLevels:
		return "levels"
	}
	for i := range got.NumVerts() {
		if !slices.Equal(got.succ[got.succOff[i]:got.succOff[i+1]], want.succ[want.succOff[i]:want.succOff[i+1]]) {
			return fmt.Sprintf("successors of vertex %d", i)
		}
	}
	for l := range got.numLevels() {
		g, w := slices.Clone(got.levelRange(l)), slices.Clone(want.levelRange(l))
		slices.Sort(g)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			return fmt.Sprintf("level %d's vertices", l)
		}
	}
	return ""
}

// After any sequence of buffer inserts and LIFO removals, re-timed by
// Update or by Run, the analyzer's patched topology is the one a
// derivation over the edited design builds, under the same numbering, and
// no topology a patch started from has changed under its holders. Only
// New's derivation levelizes.
func TestPatchedTopologyMatchesBuild(t *testing.T) {
	lib := testLib()
	for _, name := range []string{"gated", "ports"} {
		for seed := int64(1); seed <= 4; seed++ {
			d, cons := checkFixture(lib, name, seed)
			rec := obs.NewRecorder()
			a, err := New(d, cons, Config{Lib: lib, Workers: 1, Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
			s := &bufferScript{rng: rand.New(rand.NewSource(seed)), d: d}
			seen := map[*Topology]topoSnapshot{a.topo: snapshotTopology(a.topo)}
			for step := range 40 {
				ctx := fmt.Sprintf("%s seed %d step %d:", name, seed, step)
				for k := 1 + s.rng.Intn(3); k > 0; k-- {
					ctx += " " + s.step(t)
				}
				if step%2 == 0 {
					err = a.Update()
				} else {
					err = a.Run()
				}
				if err != nil {
					t.Fatalf("%s %v", ctx, err)
				}
				if diff := diffTopology(a.topo, builtTopology(t, a)); diff != "" {
					t.Fatalf("%s patched topology differs from the derivation in its %s", ctx, diff)
				}
				if _, ok := seen[a.topo]; !ok {
					seen[a.topo] = snapshotTopology(a.topo)
				}
			}
			for topo, snap := range seen {
				if !snap.equal(topo) {
					t.Fatalf("%s seed %d: a topology changed after a patch started from it", name, seed)
				}
			}
			if built, patched, fellBack := rec.Counter("sta.topologies_built").Value(),
				rec.Counter("sta.topologies_patched").Value(),
				rec.Counter("sta.update.full_run_fallback").Value(); built != 1 || patched == 0 || fellBack != 0 {
				t.Fatalf("%s seed %d: %d topologies built, %d patched, %d Updates fell back; want 1, some, 0",
					name, seed, built, patched, fellBack)
			}
		}
	}
}

// padRound pads the D pins of every third flip-flop behind a chain of
// depth delay buffers, as a hold pass's round pads its endpoints, and
// returns the buffers.
func padRound(t testing.TB, d *netlist.Design, lib *liberty.Library, from, depth int) []*netlist.Cell {
	t.Helper()
	var bufs []*netlist.Cell
	ffs := 0
	for _, c := range d.Cells {
		if m := lib.Cell(c.TypeName); m == nil || m.FF == nil {
			continue
		}
		if ffs++; ffs%3 != from {
			continue
		}
		target := c.Pin(lib.Cell(c.TypeName).FF.Data)
		for range depth {
			b, err := d.InsertBuffer(target.Net, []*netlist.Pin{target}, "BUF_X1_HVT")
			if err != nil {
				t.Fatal(err)
			}
			bufs, target = append(bufs, b), b.Pin("A")
		}
	}
	return bufs
}

// leastAlloc reports the fewest bytes any of three calls of fn allocates,
// each after its own set-up: other goroutines' bytes only ever add to the
// process-wide counter, so for work that allocates the same each time the
// least is its own.
func leastAlloc(setup, fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// A pad round's patch allocates for what it appends and for the topology,
// never for what the analyzer kept.
//
// The first round after New + Run outgrows the analyzer's exactly sized
// slabs. A twin analyzer that adopts the topology the first one patched
// makes the same patch without the topology's; what it allocates is the
// analyzer's share: the appended vertices, arc-group entries and nets with
// the headroom a grown slab gets (an eighth of the whole), and the cell
// tables and dirty lists, which append grows whole (counted twice, for the
// arrays append outgrows on the way). What the kept segments hold is not
// copied.
//
// A round patched into the topology a round before it was patched into
// costs about half of deriving the topology: the copies of the fanin,
// level and successor arrays, each of which holds an entry of a kept
// vertex that the pads change (the moved D pin's driver, sink index and
// level, its old driver's row), and the appended vertices; the wave index
// waits for the next full Run. The analyzer's own slabs have grown to fit
// in the round before, so the bytes are the patch's.
func TestPadRoundPatchBytes(t *testing.T) {
	lib := testLib()
	var a, twin *Analyzer
	fresh := func() {
		d, cons := checkFixture(lib, "gated", 7)
		var err error
		if a, err = New(d, cons, Config{Lib: lib, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if twin, err = New(d, cons, Config{Lib: lib, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if err := twin.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// patch patches the pad round into *an, whichever analyzer that is by
	// the time the measured call runs.
	patch := func(an **Analyzer) func() {
		return func() {
			if !(*an).patch(true) {
				t.Fatal("the pad round was not patched")
			}
		}
	}

	t.Run("first round", func(t *testing.T) {
		var verts, arcs, nets int
		kept := func() {
			fresh()
			verts, arcs, nets = a.NumVerts(), a.arcs.len(), a.nets.len()
			padRound(t, a.D, lib, 0, 3)
		}
		patched := leastAlloc(kept, patch(&a))
		own := leastAlloc(func() {
			kept()
			patch(&a)()
			twin.Cfg.Topology = a.topo
		}, patch(&twin))
		if !twin.sharedTopo {
			t.Fatal("the twin did not adopt the patched topology")
		}
		perVertex := 4*int(unsafe.Sizeof(bool(false))+unsafe.Sizeof(timeVar{})+unsafe.Sizeof(float64(0))+
			unsafe.Sizeof(int32(0))+unsafe.Sizeof(pred{})+unsafe.Sizeof(bool(false))+unsafe.Sizeof(float64(0))) +
			2*int(unsafe.Sizeof(float64(0))+unsafe.Sizeof(bool(false))) + // seeds
			int(unsafe.Sizeof(int32(0))+unsafe.Sizeof(float64(0))+unsafe.Sizeof(int32(0))) // vnd, pinCap, arcOff
		appended := func(was, is, size int) int { return (is - was + is/8) * size }
		share := appended(verts, twin.NumVerts(), perVertex) +
			appended(arcs, twin.arcs.len(), int(unsafe.Sizeof(arcRef{}))) +
			appended(nets, twin.nets.len(), int(unsafe.Sizeof(netData{}))) +
			2*(slabBytes(twin.cells)+slabBytes(twin.masters)+slabBytes(twin.cellBase)+
				slabBytes(twin.dirtyVerts)+slabBytes(twin.dirtyReq)+slabBytes(twin.dirtyNets))
		t.Logf("the first pad round's patch allocates %d B: %d B the analyzer's (its share %d B over %d appended vertices), %d B the topology's",
			patched, own, share, twin.NumVerts()-verts, patched-own)
		if own > uint64(share) {
			t.Fatalf("an analyzer's first pad round allocates %d B, its appended share %d B", own, share)
		}
	})

	t.Run("second round", func(t *testing.T) {
		patched := leastAlloc(func() {
			fresh()
			padRound(t, a.D, lib, 0, 3)
			if err := a.Update(); err != nil {
				t.Fatal(err)
			}
			padRound(t, a.D, lib, 1, 3)
		}, patch(&a))
		built := leastAlloc(func() {}, func() {
			if _, err := a.buildTopologyCSR(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("a pad round's patch allocates %d B, a derivation %d B (%.2f) over %d vertices",
			patched, built, float64(patched)/float64(built), a.NumVerts())
		if 5*patched >= 3*built {
			t.Fatalf("a pad round's patch allocates %d B, a derivation %d B: want under three fifths", patched, built)
		}
	})
}
