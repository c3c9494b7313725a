package sta

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
)

func TestPathsWithinSinglePathChain(t *testing.T) {
	lib := testLib()
	a, _, _ := chainSetup(t, lib, 8, 500, Config{})
	eps := a.EndpointSlacks(Setup)
	var ffEp *EndpointSlack
	for i := range eps {
		if eps[i].Pin != nil && eps[i].Pin.Cell.Name == "ff_capture" {
			ffEp = &eps[i]
			break
		}
	}
	if ffEp == nil {
		t.Fatal("no FF endpoint")
	}
	paths := a.PathsWithin(*ffEp, 1000, 10)
	if len(paths) != 1 {
		t.Fatalf("chain endpoint has %d paths, want 1", len(paths))
	}
	// The single path must match the worst-path backtrace.
	wp := a.WorstPath(*ffEp)
	if paths[0].String() != wp.String() {
		t.Errorf("enumerated path differs from backtrace:\n%s\n%s", paths[0], wp)
	}
	if math.Abs(paths[0].GBASlack-ffEp.Slack) > 1e-6 {
		t.Errorf("worst enumerated slack %v != endpoint slack %v", paths[0].GBASlack, ffEp.Slack)
	}
}

// diamond builds FF -> {short branch, long branch} -> AND2 -> FF so the
// endpoint has exactly two distinct paths: one inverter into join/A, and
// `long` inverters of longType into join/B.
func diamondDesign(t *testing.T, lib *liberty.Library, long int, longType string) (*netlist.Design, *Constraints) {
	t.Helper()
	d := netlist.New("diamond")
	clk, _ := d.AddPort("clk", netlist.Input)
	din, _ := d.AddPort("din", netlist.Input)
	dout, _ := d.AddPort("dout", netlist.Output)
	ff1, err := circuits.AddCell(d, lib, "ff1", "DFF_X1_SVT")
	if err != nil {
		t.Fatal(err)
	}
	ff2, _ := circuits.AddCell(d, lib, "ff2", "DFF_X1_SVT")
	q, _ := d.AddNet("q")
	mustConn := func(c *netlist.Cell, pin string, n *netlist.Net) {
		if err := d.Connect(c, pin, n); err != nil {
			t.Fatal(err)
		}
	}
	mustConn(ff1, "CK", clk.Net)
	mustConn(ff2, "CK", clk.Net)
	mustConn(ff1, "D", din.Net)
	mustConn(ff1, "Q", q)
	// Short branch: one inverter.
	s1, _ := circuits.AddCell(d, lib, "s1", "INV_X1_SVT")
	sn, _ := d.AddNet("sn")
	mustConn(s1, "A", q)
	mustConn(s1, "Z", sn)
	prev := q
	for i := 0; i < long; i++ {
		g, _ := circuits.AddCell(d, lib, d.FreshName("l"), longType)
		mustConn(g, "A", prev)
		n, _ := d.AddNet(d.FreshName("ln"))
		mustConn(g, "Z", n)
		prev = n
	}
	and, _ := circuits.AddCell(d, lib, "join", "AND2_X1_SVT")
	jn, _ := d.AddNet("jn")
	mustConn(and, "A", sn)
	mustConn(and, "B", prev)
	mustConn(and, "Z", jn)
	mustConn(ff2, "D", jn)
	q2, _ := d.AddNet("q2")
	mustConn(ff2, "Q", q2)
	_ = dout
	cons := NewConstraints()
	cons.AddClock("clk", 300, clk)
	return d, cons
}

// diamondEndpoint times a diamond and returns ff2's worst setup check.
func diamondEndpoint(t *testing.T, lib *liberty.Library, long int, longType string) (*Analyzer, EndpointSlack) {
	t.Helper()
	d, cons := diamondDesign(t, lib, long, longType)
	a, err := New(d, cons, Config{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range a.EndpointSlacks(Setup) {
		if e.Pin != nil && e.Pin.Cell.Name == "ff2" {
			return a, e
		}
	}
	t.Fatal("no ff2 endpoint")
	return nil, EndpointSlack{}
}

func TestPathsWithinDiamond(t *testing.T) {
	a, e := diamondEndpoint(t, testLib(), 3, "INV_X1_HVT")
	ep := &e
	// Wide window: both branches appear.
	paths := a.PathsWithin(*ep, 10000, 10)
	if len(paths) != 2 {
		t.Fatalf("diamond has %d paths, want 2", len(paths))
	}
	if paths[0].GBASlack > paths[1].GBASlack {
		t.Error("paths not worst-first")
	}
	if paths[0].Depth() == paths[1].Depth() {
		t.Error("expected branches of different depth")
	}
	gap := paths[1].GBASlack - paths[0].GBASlack
	if gap <= 0 {
		t.Fatalf("second path should be faster by a positive gap, got %v", gap)
	}
	// Tight window: only the worst branch.
	tight := a.PathsWithin(*ep, gap/2, 10)
	if len(tight) != 1 {
		t.Errorf("tight window returned %d paths, want 1", len(tight))
	}
	// maxPaths cap.
	if got := a.PathsWithin(*ep, 10000, 1); len(got) != 1 {
		t.Errorf("maxPaths=1 returned %d", len(got))
	}
	// Every enumerated path's arrivals are internally consistent.
	for _, p := range paths {
		for i := 1; i < len(p.Steps); i++ {
			want := p.Steps[i-1].Arrival + p.Steps[i].Delay
			if math.Abs(p.Steps[i].Arrival-want) > 1e-6 {
				t.Fatalf("path arrival chain broken at step %d", i)
			}
		}
	}
}

// Two in-edges of equal contribution are explored, and reported, in
// enumeration order — join's A arc before its B arc — however often the
// in-edge order and the result order are re-sorted on the way: both sorts
// are stable.
func TestPathsWithinTieKeepsEnumerationOrder(t *testing.T) {
	// Make join's two inputs indistinguishable, so the branches tie exactly.
	lib := testLib()
	and := lib.Cell("AND2_X1_SVT")
	b := and.Arc("B", "Z")
	*b = *and.Arc("A", "Z")
	b.From = "B"
	and.Pin("B").Cap = and.Pin("A").Cap
	a, e := diamondEndpoint(t, lib, 1, "INV_X1_SVT")
	paths := a.PathsWithin(e, 10000, 10)
	if len(paths) != 2 {
		t.Fatalf("symmetric diamond has %d paths, want 2", len(paths))
	}
	if paths[0].GBASlack != paths[1].GBASlack {
		t.Fatalf("branches are not tied: %v vs %v", paths[0].GBASlack, paths[1].GBASlack)
	}
	via := func(p Path) string { return p.Steps[len(p.Steps)-3].Name } // …, join/?, join/Z, ff2/D
	if via(paths[0]) != "join/A" || via(paths[1]) != "join/B" {
		t.Errorf("tied paths come back through %s then %s, want join/A then join/B", via(paths[0]), via(paths[1]))
	}
}

// One walker reused across every violating endpoint of a design, setup and
// hold, returns what the one-shot calls return — and a one-shot result is
// the caller's: later walks leave it as it was.
func TestWalkerReuseMatchesOneShot(t *testing.T) {
	lib := testLib()
	d, cons := checkFixture(lib, "ports", 11)
	cons.Clocks[0].Period, cons.Clocks[0].HoldUncertainty = 110, 60
	a, err := New(d, cons, Config{Lib: lib, Derate: DefaultAOCV()})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	var eps []EndpointSlack
	for _, kind := range []CheckKind{Setup, Hold} {
		n := len(eps)
		a.EachEndpoint(kind, func(e EndpointSlack) bool {
			if e.Slack < 0 {
				eps = append(eps, e)
			}
			return e.Slack < 0
		})
		if len(eps)-n < 10 {
			t.Fatalf("fixture has %d %v violations, want at least 10", len(eps)-n, kind)
		}
	}
	clonePaths := func(ps []Path) []Path {
		out := append([]Path(nil), ps...)
		for i := range out {
			out[i].Steps = append([]PathStep(nil), out[i].Steps...)
		}
		return out
	}
	// One-shot results first, each with a private copy to compare it to later.
	within, worst := make([][]Path, len(eps)), make([]Path, len(eps))
	withinCopy, worstCopy := make([][]Path, len(eps)), make([]Path, len(eps))
	multi := 0
	for i, e := range eps {
		within[i], worst[i] = a.PathsWithin(e, 25, 4), a.WorstPath(e)
		withinCopy[i], worstCopy[i] = clonePaths(within[i]), clonePaths([]Path{worst[i]})[0]
		if len(within[i]) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no endpoint has a second path inside the window")
	}
	w := a.Walker()
	for i, e := range eps {
		if got := w.Within(e, 25, 4); !reflect.DeepEqual(got, within[i]) {
			t.Fatalf("%s %v: reused walker's Within differs from PathsWithin:\n%v\n%v", e.Name(), e.Kind, got, within[i])
		}
		if got := w.Worst(e); !reflect.DeepEqual(got, worst[i]) {
			t.Fatalf("%s %v: reused walker's Worst differs from WorstPath:\n%v\n%v", e.Name(), e.Kind, got, worst[i])
		}
	}
	for i, e := range eps {
		if !reflect.DeepEqual(within[i], withinCopy[i]) || !reflect.DeepEqual(worst[i], worstCopy[i]) {
			t.Fatalf("%s %v: a one-shot result changed under later walks", e.Name(), e.Kind)
		}
	}
	// WorstPaths is the same walk, all paths kept at once, and the reused
	// walker's answer equals a one-shot walker's whatever it walked before.
	for _, kind := range []CheckKind{Setup, Hold} {
		for _, n := range []int{15, 3, 40} {
			once := a.WorstPaths(kind, n)
			for _, p := range once {
				if want := a.WorstPath(p.Endpoint); !reflect.DeepEqual(p, want) {
					t.Fatalf("WorstPaths(%v) path into %s differs from WorstPath", kind, p.Endpoint.Name())
				}
			}
			w.Within(eps[0], 25, 4)
			if got := w.WorstPaths(kind, n); !reflect.DeepEqual(got, once) {
				t.Fatalf("reused walker's WorstPaths(%v, %d) differs from a one-shot walker's", kind, n)
			}
		}
	}
}

func TestPathsWithinRejectsHold(t *testing.T) {
	lib := testLib()
	a, _, _ := chainSetup(t, lib, 4, 500, Config{})
	holds := a.EndpointSlacks(Hold)
	if len(holds) == 0 {
		t.Skip("no hold endpoints")
	}
	if got := a.PathsWithin(holds[0], 100, 5); got != nil {
		t.Error("hold endpoint should return nil")
	}
}

// The predecessor plane is four records per vertex in every analyzer; a
// record is the edge's source and arc index and nothing else.
func TestPredIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(pred{}); n != 8 {
		t.Fatalf("pred is %d bytes, want 8", n)
	}
}
