package netlist

import "fmt"

// Blueprint is a design flattened into plain index-linked slices — the
// exchange form snapshot packs rebuild designs from. It captures everything a Design holds, including the slice orders
// that downstream analysis depends on: vertex numbering in the SoA timing
// graph is a pure function of (Cells order, per-cell Pins order, Ports
// order) and net delay results are indexed by load order, so a rebuilt
// design must reproduce those orders exactly, not just the connectivity.
// NameSeq carries the fresh-name sequence so FreshName on the rebuilt
// design hands out the same names the original would.
type Blueprint struct {
	Name    string
	NameSeq int
	Cells   []BlueprintCell
	Nets    []BlueprintNet
	Ports   []BlueprintPort
}

// BlueprintCell is one cell instance with its pin declarations in order.
type BlueprintCell struct {
	Name     string
	TypeName string
	Pins     []PinDecl
}

// PinRef addresses a pin as (cell index, pin index within the cell).
type PinRef struct {
	Cell int32
	Pin  int32
}

// BlueprintNet is one net: its driver (or -1 for port-driven/undriven),
// its loads in connection order, and its design port (or -1).
type BlueprintNet struct {
	Name   string
	Driver PinRef // Cell == -1 when the net has no driving cell pin
	Loads  []PinRef
	Port   int32 // index into Ports, -1 when internal
}

// BlueprintPort is one primary port and the net it attaches to.
type BlueprintPort struct {
	Name string
	Dir  PinDir
	Net  int32
}

// Blueprint flattens the design.
func (d *Design) Blueprint() *Blueprint {
	bp := &Blueprint{
		Name:    d.Name,
		NameSeq: d.nameSeq,
		Cells:   make([]BlueprintCell, len(d.Cells)),
		Nets:    make([]BlueprintNet, len(d.Nets)),
		Ports:   make([]BlueprintPort, len(d.Ports)),
	}
	for ci, c := range d.Cells {
		bc := BlueprintCell{Name: c.Name, TypeName: c.TypeName, Pins: make([]PinDecl, len(c.Pins))}
		for pi, p := range c.Pins {
			bc.Pins[pi] = PinDecl{Name: p.Name, Dir: p.Dir}
		}
		bp.Cells[ci] = bc
	}
	pinRef := func(p *Pin) PinRef { return PinRef{Cell: int32(p.Cell.idx), Pin: int32(p.ord)} }
	for ni, n := range d.Nets {
		bn := BlueprintNet{Name: n.Name, Driver: PinRef{Cell: -1, Pin: -1}, Port: -1}
		if n.Driver != nil {
			bn.Driver = pinRef(n.Driver)
		}
		if len(n.Loads) > 0 {
			bn.Loads = make([]PinRef, len(n.Loads))
			for li, l := range n.Loads {
				bn.Loads[li] = pinRef(l)
			}
		}
		if n.Port != nil {
			bn.Port = int32(n.Port.idx)
		}
		bp.Nets[ni] = bn
	}
	for pi, p := range d.Ports {
		bp.Ports[pi] = BlueprintPort{Name: p.Name, Dir: p.Dir, Net: int32(p.Net.idx)}
	}
	return bp
}

// FromBlueprint rebuilds a Design, reproducing the original's slice orders
// and name maps exactly. Every index is validated and structural rules
// (one net per pin, one driver per net, direction consistency) are
// enforced, so a corrupted or hostile blueprint yields an error, never a
// panic or a design that violates netlist invariants.
func FromBlueprint(bp *Blueprint) (*Design, error) {
	d := New(bp.Name)
	d.nameSeq = bp.NameSeq
	for _, bc := range bp.Cells {
		if _, err := d.AddCell(bc.Name, bc.TypeName, bc.Pins...); err != nil {
			return nil, err
		}
	}
	for _, bn := range bp.Nets {
		if _, err := d.AddNet(bn.Name); err != nil {
			return nil, err
		}
	}
	// Ports are created directly rather than via AddPort: AddPort invents
	// a net at the end of d.Nets, but the blueprint's port nets live at
	// their original (arbitrary) positions in net order.
	for _, bport := range bp.Ports {
		if bport.Dir != Input && bport.Dir != Output {
			return nil, fmt.Errorf("netlist: blueprint port %q has bad direction %d", bport.Name, bport.Dir)
		}
		if int(bport.Net) < 0 || int(bport.Net) >= len(d.Nets) {
			return nil, fmt.Errorf("netlist: blueprint port %q references net %d of %d", bport.Name, bport.Net, len(d.Nets))
		}
		if _, dup := d.portsByName[bport.Name]; dup {
			return nil, fmt.Errorf("netlist: duplicate port %q", bport.Name)
		}
		n := d.Nets[bport.Net]
		if n.Port != nil {
			return nil, fmt.Errorf("netlist: blueprint net %q claimed by two ports", n.Name)
		}
		p := &Port{Name: bport.Name, Dir: bport.Dir, Net: n, idx: len(d.Ports)}
		n.Port = p
		d.Ports = append(d.Ports, p)
		d.portsByName[p.Name] = p
	}
	resolve := func(ref PinRef, netName string) (*Pin, error) {
		if int(ref.Cell) < 0 || int(ref.Cell) >= len(d.Cells) {
			return nil, fmt.Errorf("netlist: blueprint net %q references cell %d of %d", netName, ref.Cell, len(d.Cells))
		}
		c := d.Cells[ref.Cell]
		if int(ref.Pin) < 0 || int(ref.Pin) >= len(c.Pins) {
			return nil, fmt.Errorf("netlist: blueprint net %q references pin %d of cell %q", netName, ref.Pin, c.Name)
		}
		p := c.Pins[ref.Pin]
		if p.Net != nil {
			return nil, fmt.Errorf("netlist: blueprint connects pin %s twice", p.FullName())
		}
		return p, nil
	}
	for ni, bn := range bp.Nets {
		n := d.Nets[ni]
		if int(bn.Port) >= 0 {
			if int(bn.Port) >= len(d.Ports) || d.Ports[bn.Port].Net != n {
				return nil, fmt.Errorf("netlist: blueprint net %q port back-reference broken", n.Name)
			}
		} else if n.Port != nil {
			return nil, fmt.Errorf("netlist: blueprint net %q port back-reference broken", n.Name)
		}
		if bn.Driver.Cell != -1 {
			p, err := resolve(bn.Driver, bn.Name)
			if err != nil {
				return nil, err
			}
			if p.Dir != Output {
				return nil, fmt.Errorf("netlist: blueprint net %q driven by input pin %s", n.Name, p.FullName())
			}
			if n.Port != nil && n.Port.Dir == Input {
				return nil, fmt.Errorf("netlist: blueprint net %q driven by both a pin and an input port", n.Name)
			}
			n.Driver = p
			p.Net = n
		}
		for _, ref := range bn.Loads {
			p, err := resolve(ref, bn.Name)
			if err != nil {
				return nil, err
			}
			if p.Dir != Input {
				return nil, fmt.Errorf("netlist: blueprint net %q loads output pin %s", n.Name, p.FullName())
			}
			n.Loads = append(n.Loads, p)
			p.Net = n
		}
	}
	return d, nil
}
