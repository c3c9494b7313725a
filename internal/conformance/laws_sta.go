package conformance

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// tol absorbs the float noise of re-deriving the same quantity along a
// different computation path (path re-propagation vs graph propagation);
// laws that compare identical computations use byte equality instead.
const tol = 1e-6

// checkCRPR: clock reconvergence pessimism removal is a credit — it can
// only improve slack, never hurt it (paper §2.1: removing pessimism a
// real chip never exhibits). Two clauses: the credit is nonnegative at
// every endpoint under the stressed view, and under a view where early
// and late clock analyses coincide (no derate, no SI, no MIS) there is
// no pessimism to reclaim, so the credit is exactly zero.
func checkCRPR(cx *Ctx) error {
	a, err := cx.Base()
	if err != nil {
		return err
	}
	for _, e := range sortedEndpoints(a) {
		if e.CRPR < 0 {
			return fmt.Errorf("negative CRPR credit %v at %s (kind %v)", e.CRPR, e.Name(), e.Kind)
		}
	}
	flat, err := analyze(cx.Design, cx.Cons, sta.Config{
		Lib:        cx.Lib,
		Parasitics: sta.NewNetBinder(cx.Stack, cx.Spec.Seed),
		Derate:     sta.NoDerate{},
		Workers:    1,
	})
	if err != nil {
		return err
	}
	for _, e := range sortedEndpoints(flat) {
		if e.CRPR != 0 {
			return fmt.Errorf("CRPR credit %v at %s without early/late divergence; want exactly 0", e.CRPR, e.Name())
		}
	}
	return nil
}

// checkPBARefinesGBA: graph-based analysis merges the worst slew into
// every vertex, so a path re-timed with its own slews can only get
// faster on late analysis (and only later on early analysis) — PBA slack
// must be at least the GBA slack it refines, for setup and hold alike
// (paper §3.2: "PBA … removes pessimism one path at a time").
func checkPBARefinesGBA(cx *Ctx) error {
	a, err := cx.Base()
	if err != nil {
		return err
	}
	for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
		for _, p := range a.WorstPaths(kind, 10) {
			r := a.PBA(p)
			if float64(r.Slack) < float64(p.GBASlack)-tol {
				return fmt.Errorf("PBA degraded %v slack at %s: GBA %v → PBA %v (pessimism %v)",
					kind, p.Endpoint.Name(), p.GBASlack, r.Slack, r.Pessimism)
			}
		}
	}
	return nil
}

// checkKWorst: the k-worst path report is a ranking — it must be sorted
// worst-first, deduplicated per endpoint, and asking for more paths must
// never reorder the ones already reported (prefix stability is what lets
// an ECO loop fix the top-k and trust the list didn't shift under it).
// The slack-window variant must return only paths inside the window.
func checkKWorst(cx *Ctx) error {
	a, err := cx.Base()
	if err != nil {
		return err
	}
	for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
		ks := []int{1, 3, 8, 20}
		lists := make([][]sta.Path, len(ks))
		for i, k := range ks {
			lists[i] = a.WorstPaths(kind, k)
			if len(lists[i]) > k {
				return fmt.Errorf("WorstPaths(%v,%d) returned %d paths", kind, k, len(lists[i]))
			}
			if !sort.SliceIsSorted(lists[i], func(x, y int) bool {
				return lists[i][x].GBASlack < lists[i][y].GBASlack
			}) {
				return fmt.Errorf("WorstPaths(%v,%d) not sorted worst-first", kind, k)
			}
			seen := map[string]bool{}
			for _, p := range lists[i] {
				name := p.Endpoint.Name()
				if seen[name] {
					return fmt.Errorf("WorstPaths(%v,%d) repeats endpoint %s", kind, k, name)
				}
				seen[name] = true
			}
		}
		for i := 1; i < len(lists); i++ {
			small, big := lists[i-1], lists[i]
			if len(small) > len(big) {
				return fmt.Errorf("WorstPaths(%v) shrank from k=%d to k=%d", kind, ks[i-1], ks[i])
			}
			for j := range small {
				if small[j].Endpoint.Name() != big[j].Endpoint.Name() ||
					small[j].GBASlack != big[j].GBASlack {
					return fmt.Errorf("WorstPaths(%v) not prefix-stable at rank %d: k=%d gives %s (%v), k=%d gives %s (%v)",
						kind, j, ks[i-1], small[j].Endpoint.Name(), small[j].GBASlack,
						ks[i], big[j].Endpoint.Name(), big[j].GBASlack)
				}
			}
		}
	}
	eps := a.EndpointSlacks(sta.Setup)
	if len(eps) == 0 {
		return nil
	}
	e := eps[0]
	window := units.Ps(60)
	paths := a.PathsWithin(e, window, 64)
	if len(paths) == 0 {
		return fmt.Errorf("PathsWithin(%s) found no paths, not even the worst one", e.Name())
	}
	if !sort.SliceIsSorted(paths, func(x, y int) bool { return paths[x].GBASlack < paths[y].GBASlack }) {
		return fmt.Errorf("PathsWithin(%s) not sorted worst-first", e.Name())
	}
	for _, p := range paths {
		if float64(p.GBASlack) < float64(e.Slack)-tol || float64(p.GBASlack) > float64(e.Slack+window)+tol {
			return fmt.Errorf("PathsWithin(%s, window %v) returned slack %v outside [%v, %v]",
				e.Name(), window, p.GBASlack, e.Slack, e.Slack+window)
		}
	}
	return nil
}

// checkSlackLinearInPeriod: with single-cycle checks, relaxing the clock
// period by Δ moves every setup required time by exactly Δ while data
// and clock arrivals stay put, so every setup slack shifts by exactly Δ;
// hold compares same-edge launch/capture and must not move at all. This
// is the symbolic-STA linearity law (arXiv 2510.15907) the repo's
// property tests spot-check on one design; here it is quantified over
// the distribution and over every endpoint.
func checkSlackLinearInPeriod(cx *Ctx) error {
	a, err := cx.Base()
	if err != nil {
		return err
	}
	const delta = 60
	cons2 := cx.constraintsFor(cx.Design, units.Ps(cx.Spec.Period+delta))
	a2, err := analyze(cx.Design, cons2, cx.fullCfg(1))
	if err != nil {
		return err
	}
	for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
		base := a.EndpointSlacks(kind)
		relaxed := a2.EndpointSlacks(kind)
		if len(base) != len(relaxed) {
			return fmt.Errorf("%v endpoint count changed with period: %d → %d", kind, len(base), len(relaxed))
		}
		byKey := map[string]sta.EndpointSlack{}
		for _, e := range relaxed {
			byKey[endpointKey(e)] = e
		}
		for _, e := range base {
			r, ok := byKey[endpointKey(e)]
			if !ok {
				return fmt.Errorf("%v endpoint %s disappeared when period relaxed", kind, e.Name())
			}
			shift := float64(r.Slack - e.Slack)
			want := 0.0
			if kind == sta.Setup {
				want = delta
			}
			if shift < want-tol || shift > want+tol {
				return fmt.Errorf("%v slack at %s shifted %v for a %dps period change; want %v",
					kind, e.Name(), shift, delta, want)
			}
		}
	}
	return nil
}

// checkSTASerialParallel: the level-parallel engine's contract is
// bit-identical results at every worker count — each vertex is computed
// by exactly one goroutine from finalized earlier levels, so there is no
// legal ordering effect to observe. Compared by full state fingerprint.
func checkSTASerialParallel(cx *Ctx) error {
	serial, err := cx.Base()
	if err != nil {
		return err
	}
	par, err := analyze(cx.Design, cx.Cons, cx.fullCfg(4))
	if err != nil {
		return err
	}
	return sameState("workers=4 against workers=1", par, serial)
}

// checkDelayMonotone: NLDM characterization must produce physically
// sensible tables — a larger output load or a slower input edge cannot
// make a gate faster, and the same holds for the output slew tables
// (paper §2.1 grounds delay models in this physics; a non-monotone table
// is a characterization bug that silently corrupts every analysis built
// on it). Checked at every grid point of every arc of every cell.
func checkDelayMonotone(cx *Ctx) error {
	names := make([]string, 0, len(cx.Lib.Cells()))
	for name := range cx.Lib.Cells() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := cx.Lib.Cell(name)
		for ai := range c.Arcs {
			arc := &c.Arcs[ai]
			for _, tb := range []struct {
				label string
				t     *liberty.Table2D
			}{
				{"delay_rise", arc.DelayRise}, {"delay_fall", arc.DelayFall},
				{"slew_rise", arc.SlewRise}, {"slew_fall", arc.SlewFall},
			} {
				if tb.t == nil {
					continue
				}
				if err := tableMonotone(tb.t); err != nil {
					return fmt.Errorf("%s arc %s→%s %s: %v", name, arc.From, arc.To, tb.label, err)
				}
			}
		}
	}
	return nil
}

func tableMonotone(t *liberty.Table2D) error {
	for i, row := range t.Values {
		for j := 1; j < len(row); j++ {
			if row[j] < row[j-1] {
				return fmt.Errorf("decreasing in load at slew %v: %v fF → %v, %v fF → %v",
					t.RowAxis[i], t.ColAxis[j-1], row[j-1], t.ColAxis[j], row[j])
			}
		}
	}
	for i := 1; i < len(t.Values); i++ {
		for j := range t.Values[i] {
			if t.Values[i][j] < t.Values[i-1][j] {
				return fmt.Errorf("decreasing in slew at load %v: %v ps → %v, %v ps → %v",
					t.ColAxis[j], t.RowAxis[i-1], t.Values[i-1][j], t.RowAxis[i], t.Values[i][j])
			}
		}
	}
	return nil
}

// checkLibgenWorkers: library characterization fans cell jobs across a
// pool but assembles serially in job order; the emitted .lib must be
// byte-identical at any worker count.
func checkLibgenWorkers(cx *Ctx) error {
	pvt := liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}
	serial := liberty.Generate(liberty.Node16, pvt, liberty.GenOptions{Workers: 1})
	par := liberty.Generate(liberty.Node16, pvt, liberty.GenOptions{Workers: 4})
	var bs, bp bytes.Buffer
	if err := liberty.WriteLib(&bs, serial); err != nil {
		return err
	}
	if err := liberty.WriteLib(&bp, par); err != nil {
		return err
	}
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		return fmt.Errorf("serial and parallel characterization differ: %d vs %d bytes", bs.Len(), bp.Len())
	}
	return nil
}

// checkSlackConservedAcrossNets: a load has one driver, so its arrival is the
// driver's plus the edge delay, and the driver's required time is the
// minimum over its loads of theirs minus the same delay — the edge cancels
// and a net's driver carries exactly the worst setup slack among its sinks.
// That holds iff the forward and the backward pass charge a net edge the
// same, which useful skew on a third of the flops puts to the test on the
// clock network: a backward pass that forgets the offset shows up as a gap
// of exactly that offset.
func checkSlackConservedAcrossNets(cx *Ctx) error {
	cons := cx.constraintsFor(cx.Design, cx.Cons.Clocks[0].Period)
	for _, c := range cx.Design.Cells {
		if m := cx.Lib.Cell(c.TypeName); m != nil && m.IsSequential() && cx.rng.Intn(3) == 0 {
			cons.ExtraCKLatency[c] = units.Ps(5 + cx.rng.Intn(60))
		}
	}
	a, err := analyze(cx.Design, cons, cx.fullCfg(1))
	if err != nil {
		return err
	}
	for _, n := range cx.Design.Nets {
		var driver float64
		switch {
		case n.Driver != nil:
			driver = float64(a.PinSetupSlack(n.Driver))
		case n.Port != nil && n.Port.Dir == netlist.Input:
			driver = float64(a.PortSetupSlack(n.Port))
		default:
			continue
		}
		sinks := math.Inf(1)
		for _, l := range n.Loads {
			sinks = math.Min(sinks, float64(a.PinSetupSlack(l)))
		}
		if n.Port != nil && n.Port.Dir == netlist.Output {
			sinks = math.Min(sinks, float64(a.PortSetupSlack(n.Port)))
		}
		if !(driver == sinks || math.Abs(driver-sinks) <= 1e-9) { // == covers +Inf on both sides
			return fmt.Errorf("net %s: driver setup slack %v, worst sink %v (gap %v)", n.Name, driver, sinks, driver-sinks)
		}
	}
	return nil
}
