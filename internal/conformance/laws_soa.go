package conformance

import (
	"fmt"

	"newgame/internal/sta"
)

// checkCSRMatchesPointerWalk: the SoA core's flat CSR successor lists are
// a compiled form of the netlist pointer graph, and every downstream
// guarantee (levelization, propagation order, incremental cone marking)
// assumes they enumerate exactly the edges the pointer walk would — in
// the same order, since merge tie-breaks make enumeration order
// observable. Quantified per vertex over the design distribution, plus
// the fanin side: the CSR fanin record of every net-fed vertex must point
// back at a driver whose successor list names this vertex at exactly the
// recorded sink position (sink index = successor position is what lets
// the engine index net delay results without search).
func checkCSRMatchesPointerWalk(cx *Ctx) error {
	a, err := cx.Base()
	if err != nil {
		return err
	}
	var csr, ptr []int
	for i := 0; i < a.NumVerts(); i++ {
		csr = csr[:0]
		ptr = ptr[:0]
		a.SuccessorsCSR(i, func(j int) { csr = append(csr, j) })
		a.SuccessorsPointerWalk(i, func(j int) { ptr = append(ptr, j) })
		if len(csr) != len(ptr) {
			return fmt.Errorf("vertex %d: CSR enumerates %d successors, pointer walk %d",
				i, len(csr), len(ptr))
		}
		for k := range csr {
			if csr[k] != ptr[k] {
				return fmt.Errorf("vertex %d successor %d: CSR gives %d, pointer walk gives %d",
					i, k, csr[k], ptr[k])
			}
		}
	}
	for i := 0; i < a.NumVerts(); i++ {
		driver, net, sink := a.FaninEdge(i)
		if driver < 0 {
			continue
		}
		if net == nil {
			return fmt.Errorf("vertex %d: fanin driver %d recorded with nil net", i, driver)
		}
		pos := -1
		k := 0
		a.SuccessorsCSR(driver, func(j int) {
			if k == sink {
				pos = j
			}
			k++
		})
		if pos != i {
			return fmt.Errorf("vertex %d: fanin (driver %d, sink %d) not mirrored in CSR: successor at that position is %d",
				i, driver, sink, pos)
		}
	}
	return nil
}

// checkTopologySharedIsolated: a frozen Topology is shared read-only
// across MCMM scenario analyzers and timingd snapshots, so the law that
// makes sharing safe is isolation — two analyzers adopting one topology
// over independent clones, then edited along *different* what-if scripts
// with interleaved incremental updates, must each land bit-identical to a
// fully independent analyzer built from scratch on its own edited
// netlist. Any mutable state leaking through the shared half would show
// up as cross-contamination here.
func checkTopologySharedIsolated(cx *Ctx) error {
	d1 := cx.Design.Clone()
	d2 := cx.Design.Clone()
	period := cx.Cons.Clocks[0].Period
	cons1 := cx.constraintsFor(d1, period)
	cons2 := cx.constraintsFor(d2, period)

	a1, err := analyze(d1, cons1, cx.fullCfg(1))
	if err != nil {
		return err
	}
	cfg2 := cx.fullCfg(1)
	cfg2.Topology = a1.Topology()
	a2, err := analyze(d2, cons2, cfg2)
	if err != nil {
		return err
	}
	if !a2.SharedTopology() {
		return fmt.Errorf("second analyzer over a clone rejected the frozen topology")
	}

	// Diverge the twins: independent random edit scripts, incremental
	// updates interleaved mid-script like a real ECO loop.
	script1 := randomEditScript(cx, d1)
	script2 := randomEditScript(cx, d2)
	for _, pair := range []struct {
		a      *sta.Analyzer
		script []EditOp
	}{{a1, script1}, {a2, script2}} {
		for i, op := range pair.script {
			c := pair.a.D.Cell(op.Cell)
			if c == nil {
				return fmt.Errorf("edit %d: no cell %q in clone", i, op.Cell)
			}
			c.SetType(op.To)
			pair.a.InvalidateCell(c)
			if i%3 == 2 {
				if err := pair.a.Update(); err != nil {
					return err
				}
			}
		}
		if err := pair.a.Update(); err != nil {
			return err
		}
	}

	// Each twin must match a from-scratch analyzer on its own netlist.
	for i, pair := range []struct {
		a    *sta.Analyzer
		cons *sta.Constraints
	}{{a1, cons1}, {a2, cons2}} {
		fresh, err := analyze(pair.a.D, pair.cons, cx.fullCfg(1))
		if err != nil {
			return err
		}
		if err := sameState(fmt.Sprintf("shared-topology analyzer %d after edits", i+1), pair.a, fresh); err != nil {
			return err
		}
	}
	return nil
}
