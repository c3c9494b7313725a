package timingd

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"newgame/internal/netlist"
	"newgame/internal/serve"
)

// edit is one validated Op bound to a session's own netlist pointers,
// carrying everything its exact undo needs.
type edit struct {
	op Op
	// resize
	cell    *netlist.Cell
	oldType string
	// buffer
	net        *netlist.Net
	moved      []*netlist.Pin
	savedLoads []*netlist.Pin
	buf        *netlist.Cell
}

func (e *edit) structural() bool { return e.op.Kind == "buffer" }

// resolve binds the request's names to session pointers and validates the
// target masters against every scenario library, so apply cannot fail on
// anything but cancellation. Names resolve against the session before the
// batch, so a load an earlier buffer op of the batch moved off its net is
// refused here, not found missing by apply. Everything it rejects is the
// client's fault.
func (s *session) resolve(ops []Op) ([]*edit, error) {
	if len(ops) == 0 {
		return nil, serve.BadRequest("empty op list")
	}
	scen := s.views.Scenarios
	edits := make([]*edit, len(ops))
	moved := make(map[*netlist.Pin]bool)
	for i, op := range ops {
		e := &edit{op: op}
		for _, sc := range scen {
			m := sc.Lib.Cell(op.To)
			if m == nil {
				return nil, serve.BadRequest("op %d: master %q not in scenario %q library", i, op.To, sc.Name)
			}
			if op.Kind == "buffer" && (m.Pin("A") == nil || m.Pin("Z") == nil) {
				return nil, serve.BadRequest("op %d: master %q is not a buffer", i, op.To)
			}
		}
		switch op.Kind {
		case "resize":
			c := s.views.D.Cell(op.Cell)
			if c == nil {
				return nil, serve.BadRequest("op %d: unknown cell %q", i, op.Cell)
			}
			// The replacement must be pin-compatible: every connected pin
			// keeps its name and direction.
			m := scen[0].Lib.Cell(op.To)
			for _, p := range c.Pins {
				ps := m.Pin(p.Name)
				if ps == nil || ps.Input != (p.Dir == netlist.Input) {
					return nil, serve.BadRequest("op %d: %q is not pin-compatible with cell %q", i, op.To, op.Cell)
				}
			}
			e.cell, e.oldType = c, c.TypeName
		case "buffer":
			n := s.views.D.Net(op.Net)
			if n == nil {
				return nil, serve.BadRequest("op %d: unknown net %q", i, op.Net)
			}
			if len(op.Loads) == 0 {
				return nil, serve.BadRequest("op %d: buffer op moves no loads", i)
			}
			for _, name := range op.Loads {
				p, err := findLoad(n, name)
				if err != nil {
					return nil, serve.BadRequest("op %d: %v", i, err)
				}
				if moved[p] {
					return nil, serve.BadRequest("op %d: load %q was moved off net %q by an earlier op", i, name, n.Name)
				}
				e.moved = append(e.moved, p)
			}
			for _, p := range e.moved {
				moved[p] = true
			}
			e.net = n
		default:
			return nil, serve.BadRequest("op %d: unknown op kind %q", i, op.Kind)
		}
		edits[i] = e
	}
	return edits, nil
}

// findLoad resolves a "cell/pin" name among a net's loads.
func findLoad(n *netlist.Net, name string) (*netlist.Pin, error) {
	cell, pin, ok := strings.Cut(name, "/")
	if !ok {
		return nil, fmt.Errorf("load %q is not cell/pin", name)
	}
	for _, l := range n.Loads {
		if l.Cell != nil && l.Cell.Name == cell && l.Name == pin {
			return l, nil
		}
	}
	return nil, fmt.Errorf("net %q has no load %q", n.Name, name)
}

// apply performs the batch's netlist edits on the session and brings every
// analyzer current with them. Must run with s.mu held for writing; on error
// the caller owes a rollback.
func (s *session) apply(ctx context.Context, edits []*edit) error {
	for _, e := range edits {
		switch e.op.Kind {
		case "resize":
			e.cell.SetType(e.op.To)
		case "buffer":
			e.savedLoads = append([]*netlist.Pin(nil), e.net.Loads...)
			var err error
			if e.buf, err = s.views.D.InsertBuffer(e.net, e.moved, e.op.To); err != nil {
				return err
			}
		}
	}
	return s.settle(ctx, edits)
}

// revert takes apply's netlist edits back in reverse order: resizes restore
// the old master, inserted buffers come out again
// (netlist.Design.RemoveBuffer) and the name sequence is rewound, so the
// netlist is pointer- and name-identical to the pre-edit state. nameMark is
// the NameMark taken before apply. It is idempotent, so a panic recovery may
// run it after a rollback already did. Must run with s.mu held for writing.
func (s *session) revert(edits []*edit, nameMark int) {
	for i := len(edits) - 1; i >= 0; i-- {
		e := edits[i]
		switch e.op.Kind {
		case "resize":
			e.cell.SetType(e.oldType)
		case "buffer":
			if e.buf == nil {
				continue
			}
			s.views.D.RemoveBuffer(e.buf, e.savedLoads)
			e.buf = nil
		}
	}
	s.views.D.RewindNames(nameMark)
}

// settle brings every analyzer current after edits were applied or undone.
// A batch with a buffer insertion changed the graph, so every analyzer is
// fully re-run: scenario 0 patches the buffer into its graph (the design's
// journal of buffer edits; any other structural edit re-derives it), the
// others adopt the patched topology, and each refills only the nets whose
// loads moved. A cancelled re-run leaves them untimed, which the
// rollback the caller then owes puts right by the same route. A resize-only batch
// invalidates each retyped cell and re-times incrementally — the coalescing
// point: ten resizes cost one cone re-propagation per scenario, not ten.
// Each call is one re-time of the session (timingd.retimes).
func (s *session) settle(ctx context.Context, edits []*edit) error {
	if s.views.Obs != nil {
		s.views.Obs.Counter("timingd.retimes").Add(1)
	}
	if slices.ContainsFunc(edits, (*edit).structural) {
		return s.views.Rerun(ctx)
	}
	for _, e := range edits {
		for _, a := range s.views.Analyzers() {
			a.InvalidateCell(e.cell)
		}
	}
	return s.views.Update(ctx)
}
