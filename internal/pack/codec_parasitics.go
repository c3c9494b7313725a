package pack

import (
	"fmt"
	"math"

	"newgame/internal/netlist"
	"newgame/internal/pack/wire"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

func encodeStack(w *wire.Writer, s *parasitics.Stack) {
	w.String(s.Name)
	w.U32(uint32(len(s.Layers)))
	for _, l := range s.Layers {
		w.String(l.Name)
		w.F64(float64(l.RPerUm))
		w.F64(float64(l.CPerUm))
		w.F64(float64(l.CcPerUm))
		w.Bool(l.MultiPatterned)
		w.F64(l.RSigma)
		w.F64(l.CSigma)
		w.F64(l.CcSigma)
		w.F64(l.MinWidthUm)
		w.F64(l.JMaxPerUm)
	}
}

func decodeStack(r *wire.Reader) (*parasitics.Stack, error) {
	s := &parasitics.Stack{Name: r.String()}
	n := r.Count(8)
	if r.Err() != nil {
		return nil, r.Err()
	}
	s.Layers = make([]parasitics.Layer, 0, n)
	for i := 0; i < n; i++ {
		var l parasitics.Layer
		l.Name = r.String()
		l.RPerUm = units.KOhm(r.F64())
		l.CPerUm = units.FF(r.F64())
		l.CcPerUm = units.FF(r.F64())
		l.MultiPatterned = r.Bool()
		l.RSigma = r.F64()
		l.CSigma = r.F64()
		l.CcSigma = r.F64()
		l.MinWidthUm = r.F64()
		l.JMaxPerUm = r.F64()
		s.Layers = append(s.Layers, l)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	return s, nil
}

// encodeScaling writes an optional per-layer BEOL corner scaling.
func encodeScaling(w *wire.Writer, s *parasitics.Scaling) {
	w.Bool(s != nil)
	if s == nil {
		return
	}
	w.F64Slab(s.R)
	w.F64Slab(s.C)
	w.F64Slab(s.Cc)
}

// decodeScaling validates each factor array against the stack's layer
// count: trees index the scaling arrays by segment layer.
func decodeScaling(r *wire.Reader, nLayers int) (*parasitics.Scaling, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	s := &parasitics.Scaling{R: r.F64Slab(), C: r.F64Slab(), Cc: r.F64Slab()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(s.R) != nLayers || len(s.C) != nLayers || len(s.Cc) != nLayers {
		return nil, fmt.Errorf("pack: scaling for %d/%d/%d layers against a %d-layer stack",
			len(s.R), len(s.C), len(s.Cc), nLayers)
	}
	return s, nil
}

// encodeTrees writes the tree each net of d is timed with under p, in net
// order, with the net's name and the sink count it was routed for.
func encodeTrees(w *wire.Writer, d *netlist.Design, p *sta.Parasitics) {
	n := 0
	for _, net := range d.Nets {
		if p.Tree(net) != nil {
			n++
		}
	}
	w.U32(uint32(n))
	for _, net := range d.Nets {
		if t := p.Tree(net); t != nil {
			w.String(net.Name)
			w.I64(int64(len(t.Sinks)))
			encodeTree(w, t)
		}
	}
}

// decodeTrees fills the saved trees into a keyed table over the snapshot's
// design, stack and seed. Trees come in net order, one per net at most.
func decodeTrees(r *wire.Reader, s *Snapshot) (*sta.Parasitics, error) {
	n := r.Count(12)
	if r.Err() != nil {
		return nil, r.Err()
	}
	p := sta.NewKeyedNetBinder(s.Stack, s.Seed)
	last := -1
	for i := 0; i < n; i++ {
		name := r.String()
		need := r.I64()
		t, err := decodeTree(r, len(s.Stack.Layers))
		if err != nil {
			return nil, err
		}
		net := s.Design.Net(name)
		if net == nil || net.Index() <= last {
			return nil, fmt.Errorf("pack: saved tree for net %q is not the next net of the design", name)
		}
		last = net.Index()
		if need < 1 || int(need) != len(t.Sinks) {
			return nil, fmt.Errorf("pack: net %q tree routed for %d sinks but has %d", name, need, len(t.Sinks))
		}
		p.Fill(net, t)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return p, nil
}

func encodeTree(w *wire.Writer, t *parasitics.Tree) {
	w.I32Slab(t.Parent)
	w.F64Slab(t.R)
	w.F64Slab(t.C)
	w.F64Slab(t.Cc)
	w.U32(uint32(len(t.Layer)))
	for _, l := range t.Layer {
		w.U32(uint32(int32(l)))
	}
	w.I32Slab(t.Sinks)
}

// decodeTree reads one tree. Layers travel as 4-byte words; each must
// address the decoded stack (or be -1, a virtual node) before it is narrowed
// to the tree's one byte.
func decodeTree(r *wire.Reader, nLayers int) (*parasitics.Tree, error) {
	t := &parasitics.Tree{Parent: r.I32Slab(), R: r.F64Slab(), C: r.F64Slab(), Cc: r.F64Slab()}
	layers := r.I32Slab()
	t.Sinks = r.I32Slab()
	if err := r.Err(); err != nil {
		return nil, err
	}
	t.Layer = make([]int8, len(layers))
	for i, l := range layers {
		if l < -1 || int(l) >= nLayers || l > math.MaxInt8 {
			return nil, fmt.Errorf("pack: tree node %d on layer %d of a %d-layer stack", i, l, nLayers)
		}
		t.Layer[i] = int8(l)
	}
	// Validate covers root/parent topology, array lengths, and sink ranges.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
