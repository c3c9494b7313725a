// Package netlist provides the gate-level netlist data model shared by the
// whole repository: cells, pins, nets, and design-level ports, together with
// the structural edit operations that timing-closure optimization needs
// (resizing, Vt swap, buffer insertion, load splitting).
//
// The netlist is deliberately library-agnostic: a cell carries only the name
// of its library master (e.g. "NAND2_X2_SVT"). Binding to timing data happens
// in the analysis packages, so a design can be re-bound to a different corner
// library without structural changes.
package netlist

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// PinDir distinguishes cell inputs from outputs.
type PinDir int

const (
	// Input pins receive a value from their net's driver.
	Input PinDir = iota
	// Output pins drive their net.
	Output
)

func (d PinDir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Pin is one terminal of a cell instance. A pin belongs to exactly one cell
// and connects to at most one net.
type Pin struct {
	Name string
	Dir  PinDir
	Cell *Cell
	Net  *Net

	ord  int
	full string
}

// Index returns the pin's position in its cell's Pins.
func (p *Pin) Index() int { return p.ord }

// FullName returns "cell/pin", the conventional hierarchical pin name. It is
// made once, when the cell is added or cloned: a cell is keyed by its name
// and never renamed.
func (p *Pin) FullName() string { return p.full }

// Cell is an instance of a library master in the design.
type Cell struct {
	Name string
	// TypeName names the library master, e.g. "INV_X1_SVT" or "DFF_X1_SVT".
	TypeName string
	Pins     []*Pin

	pinsByName map[string]*Pin
	idx        int
}

// Index returns the cell's position in its design's Cells, or -1 once the
// cell has been removed. The design keeps the numbering dense: a removal
// renumbers the cells behind it, so whoever holds an index across one checks
// that Cells[i] is still the cell before trusting it. Net.Index and
// Port.Index follow the same rule.
func (c *Cell) Index() int { return c.idx }

// Pin returns the cell's pin with the given name, or nil.
func (c *Cell) Pin(name string) *Pin { return c.pinsByName[name] }

// Inputs returns the cell's input pins in declaration order.
func (c *Cell) Inputs() []*Pin {
	var ins []*Pin
	for _, p := range c.Pins {
		if p.Dir == Input {
			ins = append(ins, p)
		}
	}
	return ins
}

// Output returns the cell's first output pin, or nil. Standard cells in this
// repository have exactly one output.
func (c *Cell) Output() *Pin {
	for _, p := range c.Pins {
		if p.Dir == Output {
			return p
		}
	}
	return nil
}

// Net connects one driver pin (or an input port) to load pins (and possibly
// an output port).
type Net struct {
	Name string
	// Driver is the cell output pin driving this net; nil when the net is
	// driven by a primary input port.
	Driver *Pin
	// Loads are the cell input pins on the net, in connection order.
	Loads []*Pin
	// PortDir records primary-port attachment: nil if internal, otherwise
	// points at the design port.
	Port *Port

	idx int
}

// Index returns the net's position in its design's Nets.
func (n *Net) Index() int { return n.idx }

// Fanout returns the number of load pins plus one if the net reaches an
// output port.
func (n *Net) Fanout() int {
	f := len(n.Loads)
	if n.Port != nil && n.Port.Dir == Output {
		f++
	}
	return f
}

// Port is a primary input or output of the design.
type Port struct {
	Name string
	Dir  PinDir // Input: port drives its net; Output: port is a load.
	Net  *Net

	idx int
}

// Index returns the port's position in its design's Ports.
func (p *Port) Index() int { return p.idx }

// Design is a flat gate-level netlist.
type Design struct {
	Name  string
	Cells []*Cell
	Nets  []*Net
	Ports []*Port

	cellsByName map[string]*Cell
	netsByName  map[string]*Net
	portsByName map[string]*Port
	nameSeq     int
	revision    uint64

	// journal holds the buffer edits since the last revision move that was
	// not one (see Journal); journaling is set while InsertBuffer or a LIFO
	// RemoveBuffer runs, so the primitives under them keep it.
	journal    []Edit
	journaling bool
}

// Revision counts the design's structural edits: it moves whenever a cell,
// net or port is added or removed or a pin changes nets, and never on
// SetType. A graph built over the design still describes it for as long as
// the revision stands where it stood when the graph was built.
func (d *Design) Revision() uint64 { return d.revision }

// Edit is one journaled structural edit: a buffer InsertBuffer put in, or
// the newest cell, a buffer, that RemoveBuffer took out again. From is the
// design's revision before it; Cells and Nets its cell and net counts after
// it, so an inserted buffer is cell Cells-1 and a removed one was cell
// Cells.
type Edit struct {
	From        uint64
	Cells, Nets int
	// Net is the split net: the one the buffer's input joined, whose moved
	// loads hang off the buffer's own net after an insert and are back on
	// it after a removal.
	Net     *Net
	Buf     *Cell
	Removed bool
}

// maxJournal bounds the journal; the older half goes when it is reached, and
// a graph held at a revision it no longer covers is derived afresh.
const maxJournal = 4096

// Journal returns the edits that carry the design from revision since to
// its current one, oldest first, and whether they do. They do not when some
// revision between was moved by anything but InsertBuffer or the LIFO
// removal of the newest buffer — a direct AddCell, AddNet, AddPort,
// Connect, Disconnect or RemoveCell, a failed insert, a removal of any other
// cell — or is older than the journal keeps. A graph derived at since can
// be patched by replaying what Journal returns; any other has to be derived
// afresh. The slice is the design's own and valid until its next edit.
func (d *Design) Journal(since uint64) ([]Edit, bool) {
	if since == d.revision {
		return nil, true
	}
	i, ok := slices.BinarySearchFunc(d.journal, since, func(e Edit, r uint64) int {
		return cmp.Compare(e.From, r)
	})
	if !ok {
		return nil, false
	}
	return d.journal[i:], true
}

// bump moves the revision for a primitive edit. Outside a journaled edit it
// empties the journal: no graph older than this edit can be patched, and
// none newer needs what came before it.
func (d *Design) bump() {
	d.revision++
	if !d.journaling {
		d.journal = d.journal[:0]
	}
}

// record closes a journaled edit that began at revision from.
func (d *Design) record(from uint64, n *Net, buf *Cell, removed bool) {
	d.journaling = false
	if len(d.journal) >= maxJournal {
		d.journal = append(d.journal[:0], d.journal[maxJournal/2:]...)
	}
	d.journal = append(d.journal, Edit{
		From: from, Cells: len(d.Cells), Nets: len(d.Nets),
		Net: n, Buf: buf, Removed: removed,
	})
}

// New returns an empty design.
func New(name string) *Design {
	return &Design{
		Name:        name,
		cellsByName: make(map[string]*Cell),
		netsByName:  make(map[string]*Net),
		portsByName: make(map[string]*Port),
	}
}

// Cell returns the named cell instance, or nil.
func (d *Design) Cell(name string) *Cell { return d.cellsByName[name] }

// Net returns the named net, or nil.
func (d *Design) Net(name string) *Net { return d.netsByName[name] }

// Port returns the named port, or nil.
func (d *Design) Port(name string) *Port { return d.portsByName[name] }

// AddCell creates a cell instance with the given pin declarations. Pins are
// declared as (name, dir) pairs via PinDecl.
func (d *Design) AddCell(name, typeName string, pins ...PinDecl) (*Cell, error) {
	if _, dup := d.cellsByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate cell %q", name)
	}
	c := &Cell{Name: name, TypeName: typeName, pinsByName: make(map[string]*Pin, len(pins)), idx: len(d.Cells)}
	for _, pd := range pins {
		if _, dup := c.pinsByName[pd.Name]; dup {
			return nil, fmt.Errorf("netlist: duplicate pin %q on cell %q", pd.Name, name)
		}
		p := &Pin{Name: pd.Name, Dir: pd.Dir, Cell: c, ord: len(c.Pins), full: name + "/" + pd.Name}
		c.Pins = append(c.Pins, p)
		c.pinsByName[pd.Name] = p
	}
	d.Cells = append(d.Cells, c)
	d.cellsByName[name] = c
	d.bump()
	return c, nil
}

// PinDecl declares a pin when creating a cell.
type PinDecl struct {
	Name string
	Dir  PinDir
}

// In declares an input pin.
func In(name string) PinDecl { return PinDecl{Name: name, Dir: Input} }

// Out declares an output pin.
func Out(name string) PinDecl { return PinDecl{Name: name, Dir: Output} }

// AddNet creates a new, unconnected net.
func (d *Design) AddNet(name string) (*Net, error) {
	if _, dup := d.netsByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate net %q", name)
	}
	n := &Net{Name: name, idx: len(d.Nets)}
	d.Nets = append(d.Nets, n)
	d.netsByName[name] = n
	d.bump()
	return n, nil
}

// AddPort creates a primary input or output port together with its net. The
// net shares the port's name.
func (d *Design) AddPort(name string, dir PinDir) (*Port, error) {
	if _, dup := d.portsByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate port %q", name)
	}
	n, err := d.AddNet(name)
	if err != nil {
		return nil, err
	}
	p := &Port{Name: name, Dir: dir, Net: n, idx: len(d.Ports)}
	n.Port = p
	d.Ports = append(d.Ports, p)
	d.portsByName[name] = p
	d.bump()
	return p, nil
}

// Connect attaches the named pin of cell to net. Output pins become the
// net's driver; a net may have only one driver.
func (d *Design) Connect(c *Cell, pinName string, n *Net) error {
	p := c.Pin(pinName)
	if p == nil {
		return fmt.Errorf("netlist: cell %q has no pin %q", c.Name, pinName)
	}
	if p.Net != nil {
		return fmt.Errorf("netlist: pin %s already connected to %q", p.FullName(), p.Net.Name)
	}
	if p.Dir == Output {
		if n.Driver != nil {
			return fmt.Errorf("netlist: net %q already driven by %s", n.Name, n.Driver.FullName())
		}
		if n.Port != nil && n.Port.Dir == Input {
			return fmt.Errorf("netlist: net %q is driven by input port", n.Name)
		}
		n.Driver = p
	} else {
		n.Loads = append(n.Loads, p)
	}
	p.Net = n
	d.bump()
	return nil
}

// Disconnect removes the pin from its net.
func (d *Design) Disconnect(p *Pin) {
	n := p.Net
	if n == nil {
		return
	}
	if n.Driver == p {
		n.Driver = nil
	} else {
		for i, l := range n.Loads {
			if l == p {
				n.Loads = append(n.Loads[:i], n.Loads[i+1:]...)
				break
			}
		}
	}
	p.Net = nil
	d.bump()
}

// SetType changes the library master of a cell. It is the primitive under
// both gate sizing and Vt swap: pin structure must stay compatible, which is
// the caller's responsibility (the optimization package only swaps within a
// cell's size/Vt family).
func (c *Cell) SetType(typeName string) { c.TypeName = typeName }

// FreshName returns a design-unique name with the given prefix, for cells
// and nets created by optimization passes.
func (d *Design) FreshName(prefix string) string {
	for {
		d.nameSeq++
		name := fmt.Sprintf("%s_%d", prefix, d.nameSeq)
		if _, c := d.cellsByName[name]; c {
			continue
		}
		if _, n := d.netsByName[name]; n {
			continue
		}
		return name
	}
}

// InsertBuffer inserts a buffer of the given type into net, moving the listed
// loads (which must currently be loads of net) onto a new net driven by the
// buffer. It returns the new buffer cell. The buffer master is assumed to
// have pins A (input) and Z (output), the convention used by the library
// package.
func (d *Design) InsertBuffer(n *Net, moved []*Pin, bufType string) (*Cell, error) {
	onNet := make(map[*Pin]bool, len(n.Loads))
	for _, l := range n.Loads {
		onNet[l] = true
	}
	for _, m := range moved {
		if !onNet[m] {
			return nil, fmt.Errorf("netlist: pin %s is not a load of net %q", m.FullName(), n.Name)
		}
	}
	from := d.revision
	d.journaling = true
	buf, err := d.insertBuffer(n, moved, bufType)
	if err != nil {
		// Whatever half of the insert happened is not a journaled edit.
		d.journaling = false
		d.journal = d.journal[:0]
		return nil, err
	}
	d.record(from, n, buf, false)
	return buf, nil
}

func (d *Design) insertBuffer(n *Net, moved []*Pin, bufType string) (*Cell, error) {
	buf, err := d.AddCell(d.FreshName("buf"), bufType, In("A"), Out("Z"))
	if err != nil {
		return nil, err
	}
	newNet, err := d.AddNet(d.FreshName("bufnet"))
	if err != nil {
		return nil, err
	}
	for _, m := range moved {
		d.Disconnect(m)
		if err := d.Connect(m.Cell, m.Name, newNet); err != nil {
			return nil, err
		}
	}
	if err := d.Connect(buf, "A", n); err != nil {
		return nil, err
	}
	if err := d.Connect(buf, "Z", newNet); err != nil {
		return nil, err
	}
	return buf, nil
}

// RemoveBuffer is InsertBuffer's exact inverse. loads must be the split
// net's Loads as copied before the insertion (InsertBuffer loses the moved
// pins' positions; the design adopts the slice). Afterwards cells, nets and
// load order are pointer-identical to the pre-insert design — which is what
// keeps a rolled-back what-if bit-identical to a session that never ran it —
// and RewindNames to a NameMark from before the insert restores the name
// sequence. Several buffers come out in reverse order of going in; a
// removal of the design's newest cell and net is journaled (see Journal).
func (d *Design) RemoveBuffer(buf *Cell, loads []*Pin) {
	n, bufNet := buf.Pin("A").Net, buf.Pin("Z").Net
	last := len(d.Cells) > 0 && d.Cells[len(d.Cells)-1] == buf &&
		len(d.Nets) > 0 && d.Nets[len(d.Nets)-1] == bufNet
	from := d.revision
	d.journaling = last
	defer func() {
		if last {
			d.record(from, n, buf, true)
		}
	}()
	for len(bufNet.Loads) > 0 {
		d.Disconnect(bufNet.Loads[0])
	}
	d.RemoveCell(buf)
	delete(d.netsByName, bufNet.Name)
	if i := bufNet.idx; i >= 0 && i < len(d.Nets) && d.Nets[i] == bufNet {
		d.Nets = slices.Delete(d.Nets, i, i+1)
		for _, nn := range d.Nets[i:] {
			nn.idx--
		}
		bufNet.idx = -1
	}
	n.Loads = loads
	for _, l := range loads {
		l.Net = n
	}
}

// RemoveCell deletes a cell, disconnecting all of its pins. Nets are left in
// place even if they become undriven.
func (d *Design) RemoveCell(c *Cell) {
	for _, p := range c.Pins {
		d.Disconnect(p)
	}
	delete(d.cellsByName, c.Name)
	if i := c.idx; i >= 0 && i < len(d.Cells) && d.Cells[i] == c {
		d.Cells = slices.Delete(d.Cells, i, i+1)
		for _, cc := range d.Cells[i:] {
			cc.idx--
		}
		c.idx = -1
	}
	d.bump()
}

// Stats summarizes a design's size.
type Stats struct {
	Cells, Nets, Ports int
	MaxFanout          int
}

// Stats computes design size statistics.
func (d *Design) Stats() Stats {
	s := Stats{Cells: len(d.Cells), Nets: len(d.Nets), Ports: len(d.Ports)}
	for _, n := range d.Nets {
		if f := n.Fanout(); f > s.MaxFanout {
			s.MaxFanout = f
		}
	}
	return s
}

// Validate checks structural invariants: every cell input connected, every
// net driven (by a cell output or an input port), no floating output ports.
// It returns all problems found, sorted for determinism.
func (d *Design) Validate() []error {
	var errs []string
	for _, c := range d.Cells {
		for _, p := range c.Pins {
			if p.Dir == Input && p.Net == nil {
				errs = append(errs, fmt.Sprintf("unconnected input pin %s", p.FullName()))
			}
		}
	}
	for _, n := range d.Nets {
		driven := n.Driver != nil || (n.Port != nil && n.Port.Dir == Input)
		if !driven && (len(n.Loads) > 0 || (n.Port != nil && n.Port.Dir == Output)) {
			errs = append(errs, fmt.Sprintf("undriven net %q", n.Name))
		}
	}
	sort.Strings(errs)
	out := make([]error, len(errs))
	for i, e := range errs {
		out[i] = fmt.Errorf("netlist: %s", e)
	}
	return out
}
