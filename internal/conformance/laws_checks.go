package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/opt"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// checkChecksResident: an analyzer evaluates its endpoint checks once per
// re-time and every report in between reads them. That is only safe if the
// lists an analyzer kept through a chain of incremental Updates are the
// lists a from-scratch analysis of the same netlist computes — order, ties
// and every bit — and if the summaries served in O(1) are what anyone
// would recompute from the list. The script mixes the edits a daemon
// session sees: resizes (InvalidateCell + Update), a routing rule
// (InvalidateNet + Update), and a buffer inserted and later taken out again
// the way a what-if's rollback does (the same analyzers re-run in place,
// then edited on).
func checkChecksResident(cx *Ctx) error {
	recipe := labRecipe()
	d := cx.Design.Clone()
	rng := rand.New(rand.NewSource(mix(cx.Spec.Seed, 0xc4ec5)))
	trees := sta.NewNetBinder(cx.Stack, cx.Spec.Seed)
	build := func() (*core.Views, error) {
		return buildViews(d, recipe.Scenarios, units.Ps(cx.Spec.Period), trees)
	}
	kept, err := build()
	if err != nil {
		return err
	}
	routed := func(min int) *netlist.Net { return routedNet(rng, d, trees, min) }
	compare := func(step string) error {
		fresh, err := build()
		if err != nil {
			return fmt.Errorf("%s: fresh build: %v", step, err)
		}
		for i, a := range kept.Analyzers() {
			name := recipe.Scenarios[i].Name
			for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
				got, want := a.EndpointSlacks(kind), fresh.Analyzers()[i].EndpointSlacks(kind)
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("%s: scenario %s: kept analyzer's %v list differs from a fresh one's (%d vs %d entries)",
						step, name, kind, len(got), len(want))
				}
				sum := a.Summary(kind)
				if fs := fresh.Analyzers()[i].Summary(kind); sum != fs {
					return fmt.Errorf("%s: scenario %s: kept %v summary %+v, fresh %+v", step, name, kind, sum, fs)
				}
				if re := summarize(got); sum != re {
					return fmt.Errorf("%s: scenario %s: %v summary %+v, recomputed from the list %+v", step, name, kind, sum, re)
				}
			}
		}
		return nil
	}
	if err := compare("initial run"); err != nil {
		return err
	}
	script := cx.script(d)
	var buf *BufferEdit
	for i, op := range script {
		step := fmt.Sprintf("edit %d (%s -> %s)", i, op.Cell, op.To)
		c := d.Cell(op.Cell)
		if c == nil {
			return fmt.Errorf("%s: no such cell", step)
		}
		c.SetType(op.To)
		for _, a := range kept.Analyzers() {
			a.InvalidateCell(c)
		}
		switch i {
		case len(script) / 3:
			n := routed(1)
			if n == nil {
				return fmt.Errorf("no routed net for an NDR")
			}
			step += " + ndr"
			trees.SetNDR(n, opt.WideSpaced)
			for _, a := range kept.Analyzers() {
				a.InvalidateNet(n)
			}
		case 2 * len(script) / 3:
			n := routed(2)
			if n == nil {
				return fmt.Errorf("no multi-load net to buffer")
			}
			step += " + buffer"
			if buf, err = InsertBuffer(d, n, n.Loads[:1], "BUF_X1_SVT"); err != nil {
				return err
			}
			if err := kept.Rerun(context.Background()); err != nil {
				return fmt.Errorf("%s: re-run: %v", step, err)
			}
		}
		if err := kept.Update(context.Background()); err != nil {
			return fmt.Errorf("%s: update: %v", step, err)
		}
		if err := compare(step); err != nil {
			return err
		}
	}
	if buf == nil {
		return nil
	}
	// The graph shrinks back: timingd's exact undo, then the same re-run.
	buf.Undo(d)
	if err := kept.Rerun(context.Background()); err != nil {
		return fmt.Errorf("buffer removal: re-run: %v", err)
	}
	return compare("buffer removal")
}

// BufferEdit is one inserted buffer and the load list its removal needs.
type BufferEdit struct {
	Buf   *netlist.Cell
	saved []*netlist.Pin
}

// InsertBuffer splits moved off n behind a new buffer of the given master.
func InsertBuffer(d *netlist.Design, n *netlist.Net, moved []*netlist.Pin, master string) (*BufferEdit, error) {
	e := &BufferEdit{saved: append([]*netlist.Pin(nil), n.Loads...)}
	// InsertBuffer edits n.Loads in place; moved may be a view of it.
	buf, err := d.InsertBuffer(n, append([]*netlist.Pin(nil), moved...), master)
	e.Buf = buf
	return e, err
}

// Undo takes the buffer out the way timingd's rollback does, so the netlist
// is pointer- and order-identical to what it was — and the graph has shrunk.
// Buffers come out in reverse order of going in.
func (e *BufferEdit) Undo(d *netlist.Design) { d.RemoveBuffer(e.Buf, e.saved) }

// summarize recomputes a check summary from a worst-first endpoint list the
// way readers did before summaries were resident: worst from the head, TNS
// over each endpoint's first (worst) entry keyed on its printed name.
func summarize(eps []sta.EndpointSlack) sta.CheckSummary {
	sum := sta.CheckSummary{Worst: math.Inf(1), Endpoints: len(eps)}
	if len(eps) > 0 {
		sum.Worst = eps[0].Slack
	}
	seen := map[string]bool{}
	for _, e := range eps {
		if e.Slack < 0 {
			sum.Violations++
		}
		if !seen[e.Name()] {
			seen[e.Name()] = true
			if e.Slack < 0 {
				sum.TNS += e.Slack
			}
		}
	}
	return sum
}
