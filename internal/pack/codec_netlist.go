package pack

import (
	"fmt"

	"newgame/internal/netlist"
	"newgame/internal/pack/wire"
)

// encodeDesign writes the design as its order-exact blueprint. All the
// structural validation lives in netlist.FromBlueprint on the decode side,
// so the section carries indices verbatim.
func encodeDesign(w *wire.Writer, d *netlist.Design) error {
	bp := d.Blueprint()
	w.String(bp.Name)
	w.I64(int64(bp.NameSeq))
	w.U32(uint32(len(bp.Cells)))
	for _, c := range bp.Cells {
		w.String(c.Name)
		w.String(c.TypeName)
		w.U32(uint32(len(c.Pins)))
		for _, p := range c.Pins {
			w.String(p.Name)
			w.U8(uint8(p.Dir))
		}
	}
	w.U32(uint32(len(bp.Nets)))
	for _, n := range bp.Nets {
		w.String(n.Name)
		w.U32(uint32(n.Driver.Cell))
		w.U32(uint32(n.Driver.Pin))
		w.U32(uint32(len(n.Loads)))
		for _, l := range n.Loads {
			w.U32(uint32(l.Cell))
			w.U32(uint32(l.Pin))
		}
		w.U32(uint32(n.Port))
	}
	w.U32(uint32(len(bp.Ports)))
	for _, p := range bp.Ports {
		w.String(p.Name)
		w.U8(uint8(p.Dir))
		w.U32(uint32(p.Net))
	}
	return nil
}

// decodePinDir reads the direction of a pin or port (kind) called name; the
// name is read only into the error.
func decodePinDir(r *wire.Reader, kind, name string) (netlist.PinDir, error) {
	d := netlist.PinDir(r.U8())
	if r.Err() == nil && d != netlist.Input && d != netlist.Output {
		return 0, fmt.Errorf("pack: %s %s has bad direction %d", kind, name, d)
	}
	return d, nil
}

func decodeDesign(r *wire.Reader) (*netlist.Design, error) {
	bp := &netlist.Blueprint{Name: r.String()}
	seq := r.I64()
	if r.Err() == nil && (seq < 0 || seq > int64(int(^uint(0)>>1))) {
		return nil, fmt.Errorf("pack: design name sequence %d out of range", seq)
	}
	bp.NameSeq = int(seq)
	nCells := r.Count(9) // name + type prefixes + pin count
	if r.Err() != nil {
		return nil, r.Err()
	}
	bp.Cells = make([]netlist.BlueprintCell, 0, nCells)
	for i := 0; i < nCells; i++ {
		c := netlist.BlueprintCell{Name: r.String(), TypeName: r.String()}
		nPins := r.Count(5)
		if r.Err() != nil {
			return nil, r.Err()
		}
		c.Pins = make([]netlist.PinDecl, 0, nPins)
		for j := 0; j < nPins; j++ {
			name := r.String()
			dir, err := decodePinDir(r, "pin", name)
			if err != nil {
				return nil, err
			}
			c.Pins = append(c.Pins, netlist.PinDecl{Name: name, Dir: dir})
		}
		bp.Cells = append(bp.Cells, c)
	}
	nNets := r.Count(17)
	if r.Err() != nil {
		return nil, r.Err()
	}
	bp.Nets = make([]netlist.BlueprintNet, 0, nNets)
	for i := 0; i < nNets; i++ {
		n := netlist.BlueprintNet{Name: r.String()}
		n.Driver = netlist.PinRef{Cell: int32(r.U32()), Pin: int32(r.U32())}
		nLoads := r.Count(8)
		if r.Err() != nil {
			return nil, r.Err()
		}
		n.Loads = make([]netlist.PinRef, 0, nLoads)
		for j := 0; j < nLoads; j++ {
			n.Loads = append(n.Loads, netlist.PinRef{Cell: int32(r.U32()), Pin: int32(r.U32())})
		}
		n.Port = int32(r.U32())
		bp.Nets = append(bp.Nets, n)
	}
	nPorts := r.Count(9)
	if r.Err() != nil {
		return nil, r.Err()
	}
	bp.Ports = make([]netlist.BlueprintPort, 0, nPorts)
	for i := 0; i < nPorts; i++ {
		name := r.String()
		dir, err := decodePinDir(r, "port", name)
		if err != nil {
			return nil, err
		}
		bp.Ports = append(bp.Ports, netlist.BlueprintPort{Name: name, Dir: dir, Net: int32(r.U32())})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return netlist.FromBlueprint(bp)
}
