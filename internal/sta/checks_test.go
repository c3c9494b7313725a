package sta

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/units"
)

// endpointSlacksInto is the per-call endpoint render the resident lists
// replaced, kept verbatim as their oracle: it walks every cell, resolves
// masters and pins by name and map, backtraces into fresh buffers and sorts,
// sharing nothing with refreshChecks but the analyzer's arrival state.
func (a *Analyzer) endpointSlacksInto(kind CheckKind, out []EndpointSlack) []EndpointSlack {
	if !a.ran || a.Cons == nil {
		return out
	}
	n := a.Cfg.Derate.NSigma()
	clk := a.Cons.DefaultClock()
	for _, c := range a.D.Cells {
		m := a.master(c)
		if m.FF == nil {
			continue
		}
		dPin := c.Pin(m.FF.Data)
		ckPin := c.Pin(m.FF.Clock)
		if dPin == nil || ckPin == nil || dPin.Net == nil || ckPin.Net == nil {
			continue
		}
		di := a.pinVertex(dPin)
		ci := a.pinVertex(ckPin)
		for rf := 0; rf < 2; rf++ {
			if kind == Setup {
				kd := ix4(di, rf, late)
				if !*a.fValid.at(kd) {
					continue
				}
				ce := a.leadEdge(ci, early)
				if ce < 0 || clk == nil {
					continue
				}
				kc := ix4(ci, ce, early)
				crpr := a.refCRPR(a.refBacktrace(di, rf, late), a.refBacktrace(ci, ce, early))
				dataSlew := *a.fSlew.at(kd)
				ckSlew := *a.fSlew.at(kc)
				var su float64
				if rf == rise {
					su = m.FF.SetupRise.Lookup(dataSlew, ckSlew)
				} else {
					su = m.FF.SetupFall.Lookup(dataSlew, ckSlew)
				}
				arrD := a.fArr.at(kd).corner(true, n)
				ckArr := a.fArr.at(kc).corner(false, n)
				cycles := 1.0
				if a.Cons != nil {
					if mc, ok := a.Cons.MulticycleSetup[c]; ok && mc > 1 {
						cycles = float64(mc)
					}
				}
				req := cycles*clk.Period + ckArr - su - clk.SetupUncertainty + crpr
				out = append(out, EndpointSlack{
					Kind: Setup, Pin: dPin, RF: rf,
					Slack: req - arrD, Arrival: arrD, Required: req, CRPR: crpr,
				})
			} else {
				kd := ix4(di, rf, early)
				if !*a.fValid.at(kd) {
					continue
				}
				cl := a.leadEdge(ci, late)
				if cl < 0 {
					continue
				}
				kc := ix4(ci, cl, late)
				crpr := a.refCRPR(a.refBacktrace(di, rf, early), a.refBacktrace(ci, cl, late))
				dataSlew := *a.fSlew.at(kd)
				ckSlew := *a.fSlew.at(kc)
				var h float64
				if rf == rise {
					h = m.FF.HoldRise.Lookup(dataSlew, ckSlew)
				} else {
					h = m.FF.HoldFall.Lookup(dataSlew, ckSlew)
				}
				arrD := a.fArr.at(kd).corner(false, n)
				ckArr := a.fArr.at(kc).corner(true, n)
				holdUnc := 0.0
				if clk != nil {
					holdUnc = clk.HoldUncertainty
				}
				req := ckArr + h + holdUnc - crpr
				out = append(out, EndpointSlack{
					Kind: Hold, Pin: dPin, RF: rf,
					Slack: arrD - req, Arrival: arrD, Required: req, CRPR: crpr,
				})
			}
		}
	}
	for _, c := range a.D.Cells {
		m := a.master(c)
		if m.Gate == nil {
			continue
		}
		enPin := c.Pin(m.Gate.Enable)
		ckPin := c.Pin(m.Gate.Clock)
		if enPin == nil || ckPin == nil || enPin.Net == nil || ckPin.Net == nil {
			continue
		}
		ei := a.pinVertex(enPin)
		ci := a.pinVertex(ckPin)
		for rf := 0; rf < 2; rf++ {
			if kind == Setup {
				ke := ix4(ei, rf, late)
				if !*a.fValid.at(ke) || clk == nil {
					continue
				}
				ce := a.leadEdge(ci, early)
				if ce < 0 {
					continue
				}
				kc := ix4(ci, ce, early)
				crpr := a.refCRPR(a.refBacktrace(ei, rf, late), a.refBacktrace(ci, ce, early))
				su := m.Gate.SetupRise.Lookup(*a.fSlew.at(ke), *a.fSlew.at(kc))
				arrE := a.fArr.at(ke).corner(true, n)
				ckArr := a.fArr.at(kc).corner(false, n)
				req := clk.Period + ckArr - su - clk.SetupUncertainty + crpr
				out = append(out, EndpointSlack{
					Kind: Setup, Pin: enPin, RF: rf,
					Slack: req - arrE, Arrival: arrE, Required: req, CRPR: crpr,
				})
			} else {
				ke := ix4(ei, rf, early)
				if !*a.fValid.at(ke) {
					continue
				}
				cl := a.leadEdge(ci, late)
				if cl < 0 {
					continue
				}
				kc := ix4(ci, cl, late)
				crpr := a.refCRPR(a.refBacktrace(ei, rf, early), a.refBacktrace(ci, cl, late))
				h := m.Gate.HoldRise.Lookup(*a.fSlew.at(ke), *a.fSlew.at(kc))
				arrE := a.fArr.at(ke).corner(false, n)
				ckArr := a.fArr.at(kc).corner(true, n)
				holdUnc := 0.0
				if clk != nil {
					holdUnc = clk.HoldUncertainty
				}
				req := ckArr + h + holdUnc - crpr
				out = append(out, EndpointSlack{
					Kind: Hold, Pin: enPin, RF: rf,
					Slack: arrE - req, Arrival: arrE, Required: req, CRPR: crpr,
				})
			}
		}
	}
	for _, p := range a.D.Ports {
		if p.Dir != netlist.Output {
			continue
		}
		io, ok := a.Cons.OutputDelay[p]
		if !ok || io.Clock == nil {
			continue
		}
		i := a.portVertex(p)
		for rf := 0; rf < 2; rf++ {
			if kind == Setup && *a.fValid.at(ix4(i, rf, late)) {
				arr := a.fArr.at(ix4(i, rf, late)).corner(true, n)
				req := io.Clock.Period - io.Max - io.Clock.SetupUncertainty
				out = append(out, EndpointSlack{
					Kind: Setup, Port: p, RF: rf,
					Slack: req - arr, Arrival: arr, Required: req,
				})
			}
			if kind == Hold && *a.fValid.at(ix4(i, rf, early)) {
				arr := a.fArr.at(ix4(i, rf, early)).corner(false, n)
				req := io.Min
				out = append(out, EndpointSlack{
					Kind: Hold, Port: p, RF: rf,
					Slack: arr - req, Arrival: arr, Required: req,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slack < out[j].Slack })
	return out
}

// refBacktrace is the oracle's root-first worst-path chain, built fresh.
func (a *Analyzer) refBacktrace(i, rf, el int) []int {
	var rev []int
	for i >= 0 {
		rev = append(rev, i)
		k := ix4(i, rf, el)
		if !*a.fValid.at(k) {
			break
		}
		i, rf = a.fPred.at(k).source()
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

func (a *Analyzer) refCRPR(launch, capture []int) units.Ps {
	nc := len(capture)
	if len(launch) < nc {
		nc = len(launch)
	}
	common := -1
	for k := 0; k < nc; k++ {
		if launch[k] != capture[k] {
			break
		}
		if a.topo.clockPath[launch[k]] {
			common = launch[k]
		}
	}
	if common < 0 {
		return 0
	}
	le := a.leadEdge(common, late)
	ee := a.leadEdge(common, early)
	if le < 0 || ee < 0 {
		return 0
	}
	credit := a.fArr.at(ix4(common, le, late)).T - a.fArr.at(ix4(common, ee, early)).T
	if credit < 0 {
		return 0
	}
	return credit
}

// refSummary is the summary the old readers derived per call: worst from
// the head, TNS keyed on the built endpoint name, violations by counting.
func refSummary(s []EndpointSlack) CheckSummary {
	sum := CheckSummary{Worst: math.Inf(1), Endpoints: len(s)}
	if len(s) > 0 {
		sum.Worst = s[0].Slack
	}
	seen := map[string]bool{}
	for _, e := range s {
		if e.Slack < 0 {
			sum.Violations++
		}
		if k := e.Name(); !seen[k] {
			seen[k] = true
			if e.Slack < 0 {
				sum.TNS += e.Slack
			}
		}
	}
	return sum
}

// sameChecks reports the first difference between a resident list and the
// oracle's: order, identity and every float's bits.
func sameChecks(got, want []EndpointSlack) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, oracle has %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i, g := range got {
		w := want[i]
		if g.Kind != w.Kind || g.Pin != w.Pin || g.Port != w.Port || g.RF != w.RF ||
			bits(g.Slack) != bits(w.Slack) || bits(g.Arrival) != bits(w.Arrival) ||
			bits(g.Required) != bits(w.Required) || bits(g.CRPR) != bits(w.CRPR) {
			return fmt.Errorf("entry %d: got %+v, oracle %+v", i, g, w)
		}
	}
	return nil
}

func assertResidentMatchesOracle(t *testing.T, a *Analyzer, ctx string) {
	t.Helper()
	for _, kind := range []CheckKind{Setup, Hold} {
		want := a.endpointSlacksInto(kind, nil)
		if len(want) == 0 {
			t.Fatalf("%s: oracle found no %v checks", ctx, kind)
		}
		if err := sameChecks(a.checks[kind].list, want); err != nil {
			t.Fatalf("%s: resident %v list: %v", ctx, kind, err)
		}
		if err := sameChecks(a.EndpointSlacks(kind), want); err != nil {
			t.Fatalf("%s: EndpointSlacks(%v): %v", ctx, kind, err)
		}
		got, ws := a.Summary(kind), refSummary(want)
		if math.Float64bits(got.Worst) != math.Float64bits(ws.Worst) ||
			math.Float64bits(got.TNS) != math.Float64bits(ws.TNS) ||
			got.Violations != ws.Violations || got.Endpoints != ws.Endpoints {
			t.Fatalf("%s: Summary(%v) = %+v, oracle %+v", ctx, kind, got, ws)
		}
		if a.WorstSlack(kind) != ws.Worst || a.TNS(kind) != ws.TNS {
			t.Fatalf("%s: WorstSlack/TNS(%v) disagree with Summary", ctx, kind)
		}
	}
}

// checkFixture builds the two designs the check classes need between them:
// "gated" has ICG enables beside its flip-flops, "ports" has constrained
// output ports and a multicycle exception.
func checkFixture(lib *liberty.Library, name string, seed int64) (*netlist.Design, *Constraints) {
	d := circuits.Block(lib, circuits.BlockSpec{
		Name: name, Inputs: 8, Outputs: 8, FFs: 24, Gates: 260,
		MaxDepth: 8, Seed: seed, ClockBufferLevels: 2,
		VtMix:       [3]float64{0.2, 0.5, 0.3},
		ClockGating: name == "gated",
	})
	cons := NewConstraints()
	ck := cons.AddClock("clk", 420, d.Port("clk"))
	ck.SetupUncertainty, ck.HoldUncertainty = 12, 6
	if name == "ports" {
		for _, p := range d.Ports {
			if p.Dir == netlist.Output {
				cons.OutputDelay[p] = IODelay{Clock: ck, Min: 5, Max: 40}
			}
		}
		for _, c := range d.Cells {
			if lib.Cell(c.TypeName).FF != nil {
				cons.MulticycleSetup[c] = 2
				break
			}
		}
	}
	return d, cons
}

// The resident lists (order included) and summaries must equal what the
// replaced per-call render computes from the same arrival state: after Run,
// after every incremental Update of a seeded retype script, and after a
// retype that breaks the arc shape and forces the full-Run fallback.
func TestResidentChecksMatchReferenceBitwise(t *testing.T) {
	lib := testLib()
	stack := parasitics.Stack16()
	deraters := []Derater{NoDerate{}, DefaultFlatOCV(), DefaultAOCV(), DefaultPOCV(), DefaultLVF()}
	const seed = 11
	for _, name := range []string{"gated", "ports"} {
		for _, wire := range []WireModel{WireElmore, WireD2M} {
			for _, si := range []bool{false, true} {
				for _, der := range deraters {
					ctx := fmt.Sprintf("%s wire=%d si=%v derate=%T", name, wire, si, der)
					d, cons := checkFixture(lib, name, seed)
					cfg := Config{Lib: lib, Parasitics: NewNetBinder(stack, seed), Wire: wire, Derate: der, MIS: true, Workers: 1}
					if si {
						cfg.SI = DefaultSI()
					}
					a, err := New(d, cons, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if a.Summary(Setup).Endpoints != 0 || !math.IsInf(a.WorstSlack(Hold), 1) || a.EndpointSlacks(Setup) != nil {
						t.Fatalf("%s: checks visible before the first Run", ctx)
					}
					if err := a.Run(); err != nil {
						t.Fatal(err)
					}
					assertResidentMatchesOracle(t, a, ctx+" after Run")
					var classes [sitePort + 1]int
					for _, s := range a.sites {
						classes[s.class]++
					}
					if classes[siteFF] == 0 || (name == "gated") != (classes[siteGate] > 0) || (name == "ports") != (classes[sitePort] > 0) {
						t.Fatalf("%s: fixture site classes %v", ctx, classes)
					}
					rng := rand.New(rand.NewSource(seed))
					for round := 0; round < 4; round++ {
						for swapped, tries := 0, 0; swapped < 5 && tries < 80; tries++ {
							c := d.Cells[rng.Intn(len(d.Cells))]
							if to := vtSwapVariant(lib, c.TypeName); to != "" {
								c.SetType(to)
								a.InvalidateCell(c)
								swapped++
							}
						}
						if a.structDirty || !a.dirty() {
							t.Fatalf("%s round %d: script did not stay incremental", ctx, round)
						}
						if err := a.Update(); err != nil {
							t.Fatal(err)
						}
						assertResidentMatchesOracle(t, a, fmt.Sprintf("%s after Update %d", ctx, round))
					}
					// NAND2 -> INV drops an arc: not an in-place swap.
					for _, c := range d.Cells {
						if m := lib.Cell(c.TypeName); m.Function == "NAND2" {
							c.SetType(liberty.CellName("INV", m.Drive, m.Vt))
							a.InvalidateCell(c)
							break
						}
					}
					if !a.structDirty {
						t.Fatalf("%s: reshaping retype did not force a full Run", ctx)
					}
					if err := a.Update(); err != nil {
						t.Fatal(err)
					}
					assertResidentMatchesOracle(t, a, ctx+" after full-Run fallback")
				}
			}
		}
	}
}

// Reading a report is free: the summaries are field reads and the list is
// one exact-size copy.
func TestSummaryDoesNotAllocate(t *testing.T) {
	_, a, err := incrTestDesign(testLib(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += a.Summary(Setup).TNS + a.WorstSlack(Hold) + a.TNS(Hold) + a.WNS(Setup)
	}); n != 0 {
		t.Errorf("Summary/WorstSlack/TNS allocate %v times per call, want 0", n)
	}
	var keep []EndpointSlack
	if n := testing.AllocsPerRun(100, func() { keep = a.EndpointSlacks(Setup) }); n > 1 {
		t.Errorf("EndpointSlacks allocates %v times per call, want at most 1", n)
	}
	if len(keep) == 0 || math.IsNaN(sink) {
		t.Fatal("fixture has no setup checks")
	}
}

// EndpointSlacks hands out a copy: a caller that reorders or overwrites its
// result must not change what the next caller, or the summaries, see.
func TestEndpointSlacksReturnsPrivateCopy(t *testing.T) {
	_, a, err := incrTestDesign(testLib(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	first := a.EndpointSlacks(Setup)
	want := append([]EndpointSlack(nil), first...)
	for i := range first {
		first[i] = EndpointSlack{Slack: -1e9}
	}
	if err := sameChecks(a.EndpointSlacks(Setup), want); err != nil {
		t.Fatalf("mutating a result changed the next call: %v", err)
	}
	if a.WorstSlack(Setup) != want[0].Slack {
		t.Fatal("mutating a result changed the summary")
	}
}
