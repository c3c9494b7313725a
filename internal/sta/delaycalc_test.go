package sta

import (
	"math"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
)

// loadedTree attaches receiver caps to a copy of tr as real zero-resistance
// nodes — the construction delay calculation used before the moment kernel
// took the caps as an argument.
func loadedTree(tr *parasitics.Tree, caps []float64) *parasitics.Tree {
	cp := parasitics.NewTree(0, 0)
	cp.R[0], cp.C[0], cp.Cc[0], cp.Layer[0] = tr.R[0], tr.C[0], tr.Cc[0], tr.Layer[0]
	for i := 1; i < tr.N(); i++ {
		cp.AddNode(int(tr.Parent[i]), tr.R[i], tr.C[i], tr.Cc[i], int(tr.Layer[i]))
	}
	for _, s := range tr.Sinks {
		cp.MarkSink(int(s))
	}
	for i, sink := range tr.Sinks {
		if i < len(caps) && caps[i] > 0 {
			cp.AddNode(int(sink), 0, caps[i], 0, -1)
		}
	}
	return cp
}

// netResults is a routed net's delay-calc results, per sink in load order.
type netResults struct {
	totalCap  [2]float64
	sinkDelay [2][]float64
	sinkSlew  []float64
}

// resultsOf reads an entry's results through its accessors.
func resultsOf(nd *netData) (r netResults) {
	r.totalCap = nd.totalCap
	for s := 0; s < int(nd.k); s++ {
		r.sinkDelay[early] = append(r.sinkDelay[early], nd.sinkDelay(early, s))
		r.sinkDelay[late] = append(r.sinkDelay[late], nd.sinkDelay(late, s))
		r.sinkSlew = append(r.sinkSlew, nd.sinkSlew(s))
	}
	return r
}

// referenceNetData composes a routed net's delay-calc results from the
// allocating Tree methods on the loaded copy, the way fillNetData did
// before it ran on the kernel.
func referenceNetData(a *Analyzer, tree *parasitics.Tree, caps []float64) (nd netResults) {
	s := a.Cfg.Scaling
	millerE, millerL := 1.0, 1.0
	if a.Cfg.SI.Enabled {
		millerE = 1 - a.Cfg.SI.SwitchingFraction
		millerL = 1 + a.Cfg.SI.SwitchingFraction
	}
	wt := loadedTree(tree, caps)
	nd.totalCap[early] = wt.TotalCapM(s, millerE)
	nd.totalCap[late] = wt.TotalCapM(s, millerL)
	nd.sinkSlew = wt.SlewDegradation(s)
	if a.Cfg.Wire != WireD2M {
		nd.sinkDelay[early] = wt.ElmoreM(s, millerE)
		nd.sinkDelay[late] = wt.ElmoreM(s, millerL)
		return nd
	}
	nd.sinkDelay[early] = wt.DelayD2M(s)
	nd.sinkDelay[late] = nd.sinkDelay[early]
	if a.Cfg.SI.Enabled {
		base, eScale, lScale := wt.ElmoreM(s, 1), wt.ElmoreM(s, millerE), wt.ElmoreM(s, millerL)
		nd.sinkDelay[late] = make([]float64, len(base))
		for i, d := range nd.sinkDelay[early] {
			nd.sinkDelay[late][i] = d
			if base[i] > 0 {
				nd.sinkDelay[late][i] = d * lScale[i] / base[i]
				nd.sinkDelay[early][i] = d * eScale[i] / base[i]
			}
		}
	}
	return nd
}

func bitsEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// Every routed net's delay-calc results equal the loaded-copy construction
// bit for bit, under each wire model, with SI on and off, at a typical and
// a scaled BEOL corner.
func TestDelayCalcMatchesLoadedTreeReference(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: "dc", Inputs: 10, Outputs: 10, FFs: 32, Gates: 420,
		MaxDepth: 9, Seed: 5, ClockBufferLevels: 2,
		VtMix: [3]float64{0.2, 0.5, 0.3},
	})
	for _, wire := range []WireModel{WireElmore, WireD2M} {
		for _, si := range []SIConfig{{}, DefaultSI()} {
			for _, scaling := range []*parasitics.Scaling{nil, stack.Corner(parasitics.RCWorst, 3)} {
				cons := NewConstraints()
				cons.AddClock("clk", 600, d.Port("clk"))
				a, err := New(d, cons, Config{
					Lib: lib, Parasitics: NewNetBinder(stack, 5),
					Wire: wire, SI: si, Scaling: scaling, Workers: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Run(); err != nil {
					t.Fatal(err)
				}
				routed := 0
				for _, n := range d.Nets {
					nd := a.netDataOf(n)
					if nd.srcTree == nil || nd.k == 0 {
						continue
					}
					routed++
					got, want := resultsOf(nd), referenceNetData(a, nd.srcTree, nd.caps())
					if got.totalCap != want.totalCap ||
						!bitsEqual(got.sinkDelay[early], want.sinkDelay[early]) ||
						!bitsEqual(got.sinkDelay[late], want.sinkDelay[late]) ||
						!bitsEqual(got.sinkSlew, want.sinkSlew) {
						t.Fatalf("wire %d si %v scaled %v: net %s differs from the reference:\n got  %+v\n want %+v",
							wire, si.Enabled, scaling != nil, n.Name, got, want)
					}
				}
				if routed == 0 {
					t.Fatal("no routed net exercised")
				}
			}
		}
	}
}

// Refilling a dirty net on an analyzer that has run allocates nothing: the
// kernel scratch, its cap-gather buffer and the net's result storage are
// all reused.
func TestRefillDirtyNetDoesNotAllocate(t *testing.T) {
	_, a, err := incrTestDesign(testLib(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	var net *netlist.Net
	for _, n := range a.D.Nets {
		if nd := a.netDataOf(n); nd.k > 0 && len(n.Loads) >= 3 {
			net = n
			break
		}
	}
	if net == nil {
		t.Fatal("no routed multi-sink net")
	}
	nd := a.netDataOf(net)
	refill := func() {
		nd.filled = false // what a moved pin cap or tree does to the input key
		if a.fillNetData(nd, &a.calc[0]) {
			t.Fatal("dirty net served from the cache")
		}
	}
	refill()
	if n := testing.AllocsPerRun(50, refill); n != 0 {
		t.Fatalf("refilling one dirty net allocates %v objects, want 0", n)
	}
}
