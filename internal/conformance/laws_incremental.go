package conformance

import (
	"fmt"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
)

// EditOp is one resize step of an edit script: retype a named cell to a
// different master of the same function. It is the serializable unit of
// a reproducer.
type EditOp struct {
	Cell string `json:"cell"`
	To   string `json:"to"`
}

// checkIncrementalMatchesFull: incremental re-timing exists so an ECO
// loop doesn't pay a full analysis per trial fix, but the contract is
// absolute — after any edit script, Update must land on bit-identical
// state to a from-scratch Run on the edited netlist (the repo's existing
// property test, quantified over random designs and scripts). Updates
// are interleaved mid-script so partially-updated state is also covered.
func checkIncrementalMatchesFull(cx *Ctx) error {
	// The script mutates the netlist; work on a clone so the Ctx design
	// (and the cached base analyzer) stay valid for other laws.
	d := cx.Design.Clone()
	cons := cx.constraintsFor(d, cx.Cons.Clocks[0].Period)
	inc, err := analyze(d, cons, cx.fullCfg(1))
	if err != nil {
		return err
	}
	script := cx.script(d)
	for i, op := range script {
		c := d.Cell(op.Cell)
		if c == nil {
			return fmt.Errorf("edit %d: no cell %q in design", i, op.Cell)
		}
		c.SetType(op.To)
		inc.InvalidateCell(c)
		// Exercise mid-script updates, not just one batched catch-up.
		if i%3 == 2 {
			if err := inc.Update(); err != nil {
				return fmt.Errorf("edit %d: incremental update: %v", i, err)
			}
		}
	}
	if err := inc.Update(); err != nil {
		return err
	}
	full, err := analyze(d, cons, cx.fullCfg(1))
	if err != nil {
		return err
	}
	return sameState(fmt.Sprintf("incremental analyzer after %d edits", len(script)), inc, full)
}

// randomEditScript draws cx.Edits resize ops: random cells retyped to a
// random different drive/Vt variant of the same function. Cells may be
// edited more than once — an ECO loop revisits cells too.
func randomEditScript(cx *Ctx, d *netlist.Design) []EditOp {
	var candidates []int
	for i, c := range d.Cells {
		master := cx.Lib.Cell(c.TypeName)
		if master == nil || len(variantsOf(cx.Lib, master)) < 2 {
			continue
		}
		candidates = append(candidates, i)
	}
	if len(candidates) == 0 {
		return nil
	}
	script := make([]EditOp, 0, cx.Edits)
	for len(script) < cx.Edits {
		c := d.Cells[candidates[cx.rng.Intn(len(candidates))]]
		vs := variantsOf(cx.Lib, cx.Lib.Cell(c.TypeName))
		to := vs[cx.rng.Intn(len(vs))]
		if to == c.TypeName {
			continue
		}
		c.SetType(to) // track the running type so chained edits stay distinct
		script = append(script, EditOp{Cell: c.Name, To: to})
	}
	// The script was simulated on the clone while being drawn; rewind the
	// clone so the caller applies it from the original state.
	for i := len(script) - 1; i >= 0; i-- {
		prev := cx.Design.Cell(script[i].Cell).TypeName
		for j := i - 1; j >= 0; j-- {
			if script[j].Cell == script[i].Cell {
				prev = script[j].To
				break
			}
		}
		d.Cell(script[i].Cell).SetType(prev)
	}
	return script
}

// variantsOf lists every master name sharing the cell's function (all
// drives × all Vt classes present in the library).
func variantsOf(lib *liberty.Library, master *liberty.Cell) []string {
	var out []string
	for _, drive := range lib.Drives(master.Function) {
		for _, vt := range []liberty.VtClass{liberty.LVT, liberty.SVT, liberty.HVT} {
			if v := lib.Variant(master, drive, vt); v != nil {
				out = append(out, v.Name)
			}
		}
	}
	return out
}
