package netlist

// Clone returns a deep structural copy of the design: fresh Cell, Pin, Net
// and Port objects with identical names, masters, ordering and connectivity,
// plus the same fresh-name sequence, so FreshName on the clone hands out the
// same names the original would. Analysis state lives outside the netlist,
// so a clone is immediately analyzable; edits to either design never touch
// the other. Resident signoff sessions use clones as epoch snapshots: ECO
// mutations land on one copy while queries keep reading another.
func (d *Design) Clone() *Design {
	nd := New(d.Name)
	nd.nameSeq = d.nameSeq
	// Nets first (empty shells), preserving slice order — optimization
	// passes and delay calculation iterate d.Nets, so clone analysis must
	// see the exact same order.
	for _, n := range d.Nets {
		nn := &Net{Name: n.Name, idx: n.idx}
		nd.Nets = append(nd.Nets, nn)
		nd.netsByName[nn.Name] = nn
	}
	netOf := func(n *Net) *Net {
		if n == nil {
			return nil
		}
		return nd.Nets[n.idx]
	}
	for _, c := range d.Cells {
		nc := &Cell{Name: c.Name, TypeName: c.TypeName, pinsByName: make(map[string]*Pin, len(c.Pins)), idx: c.idx}
		for _, p := range c.Pins {
			np := &Pin{Name: p.Name, Dir: p.Dir, Cell: nc, Net: netOf(p.Net), ord: p.ord, full: p.full}
			nc.Pins = append(nc.Pins, np)
			nc.pinsByName[np.Name] = np
		}
		nd.Cells = append(nd.Cells, nc)
		nd.cellsByName[nc.Name] = nc
	}
	for _, p := range d.Ports {
		np := &Port{Name: p.Name, Dir: p.Dir, Net: netOf(p.Net), idx: p.idx}
		nd.Ports = append(nd.Ports, np)
		nd.portsByName[np.Name] = np
		if np.Net != nil {
			np.Net.Port = np
		}
	}
	pinOf := func(p *Pin) *Pin { return nd.Cells[p.Cell.idx].Pins[p.ord] }
	for i, n := range d.Nets {
		nn := nd.Nets[i]
		if n.Driver != nil {
			nn.Driver = pinOf(n.Driver)
		}
		if len(n.Loads) > 0 {
			nn.Loads = make([]*Pin, len(n.Loads))
			for li, l := range n.Loads {
				nn.Loads[li] = pinOf(l)
			}
		}
	}
	return nd
}

// NameMark returns an opaque marker of the fresh-name sequence. Pairing it
// with RewindNames lets a speculative edit (a what-if buffer insertion)
// restore the design to a state where future FreshName calls produce the
// exact names they would have produced had the edit never happened — the
// property epoch-replay determinism in resident signoff rests on.
func (d *Design) NameMark() int { return d.nameSeq }

// RewindNames resets the fresh-name sequence to an earlier NameMark. The
// caller must have already removed every cell and net named after the mark
// was taken; FreshName skips live duplicates, so a missed removal degrades
// to a skipped name rather than a collision.
func (d *Design) RewindNames(mark int) {
	if mark < d.nameSeq {
		d.nameSeq = mark
	}
}
