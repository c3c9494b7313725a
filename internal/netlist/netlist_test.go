package netlist

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// buildInvChain builds in -> inv1 -> inv2 -> out and returns the design.
func buildInvChain(t *testing.T) *Design {
	t.Helper()
	d := New("chain")
	in, err := d.AddPort("in", Input)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.AddPort("out", Output)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := d.AddNet("mid")
	if err != nil {
		t.Fatal(err)
	}
	inv1, err := d.AddCell("inv1", "INV_X1_SVT", In("A"), Out("Z"))
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := d.AddCell("inv2", "INV_X1_SVT", In("A"), Out("Z"))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		c   *Cell
		pin string
		n   *Net
	}{
		{inv1, "A", in.Net}, {inv1, "Z", mid}, {inv2, "A", mid}, {inv2, "Z", out.Net},
	} {
		if err := d.Connect(step.c, step.pin, step.n); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestBuildAndValidate(t *testing.T) {
	d := buildInvChain(t)
	if errs := d.Validate(); len(errs) != 0 {
		t.Fatalf("valid design reported errors: %v", errs)
	}
	st := d.Stats()
	if st.Cells != 2 || st.Ports != 2 || st.Nets != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDuplicateNames(t *testing.T) {
	d := New("dup")
	if _, err := d.AddCell("u1", "INV_X1_SVT", In("A"), Out("Z")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddCell("u1", "INV_X1_SVT", In("A"), Out("Z")); err == nil {
		t.Error("duplicate cell name accepted")
	}
	if _, err := d.AddNet("n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddNet("n1"); err == nil {
		t.Error("duplicate net name accepted")
	}
	if _, err := d.AddPort("p", Input); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("p", Input); err == nil {
		t.Error("duplicate port name accepted")
	}
	if _, err := d.AddCell("u2", "NAND2_X1_SVT", In("A"), In("A"), Out("Z")); err == nil {
		t.Error("duplicate pin name accepted")
	}
}

func TestConnectErrors(t *testing.T) {
	d := New("err")
	n, _ := d.AddNet("n")
	c1, _ := d.AddCell("c1", "INV_X1_SVT", In("A"), Out("Z"))
	c2, _ := d.AddCell("c2", "INV_X1_SVT", In("A"), Out("Z"))
	if err := d.Connect(c1, "nope", n); err == nil {
		t.Error("connecting nonexistent pin succeeded")
	}
	if err := d.Connect(c1, "Z", n); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(c2, "Z", n); err == nil {
		t.Error("double driver accepted")
	}
	if err := d.Connect(c1, "Z", n); err == nil {
		t.Error("reconnecting connected pin accepted")
	}
	// Driving an input-port net from a cell output must fail.
	p, _ := d.AddPort("pi", Input)
	if err := d.Connect(c2, "Z", p.Net); err == nil {
		t.Error("cell output driving input-port net accepted")
	}
}

func TestValidateFindsProblems(t *testing.T) {
	d := New("bad")
	// Cell with unconnected input.
	c, _ := d.AddCell("u1", "INV_X1_SVT", In("A"), Out("Z"))
	n, _ := d.AddNet("n")
	if err := d.Connect(c, "Z", n); err != nil {
		t.Fatal(err)
	}
	// Undriven net with a load.
	und, _ := d.AddNet("und")
	c2, _ := d.AddCell("u2", "INV_X1_SVT", In("A"), Out("Z"))
	if err := d.Connect(c2, "A", und); err != nil {
		t.Fatal(err)
	}
	errs := d.Validate()
	var text []string
	for _, e := range errs {
		text = append(text, e.Error())
	}
	joined := strings.Join(text, "; ")
	if !strings.Contains(joined, "u1/A") {
		t.Errorf("missing unconnected-input report: %s", joined)
	}
	if !strings.Contains(joined, `"und"`) {
		t.Errorf("missing undriven-net report: %s", joined)
	}
}

func TestInsertBuffer(t *testing.T) {
	d := New("buf")
	in, _ := d.AddPort("in", Input)
	drv, _ := d.AddCell("drv", "INV_X1_SVT", In("A"), Out("Z"))
	net, _ := d.AddNet("big")
	if err := d.Connect(drv, "A", in.Net); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, "Z", net); err != nil {
		t.Fatal(err)
	}
	var sinks []*Cell
	for i := 0; i < 4; i++ {
		c, _ := d.AddCell("s"+string(rune('0'+i)), "INV_X1_SVT", In("A"), Out("Z"))
		if err := d.Connect(c, "A", net); err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, c)
	}
	// Move the middle two sinks behind a buffer, so putting them back has
	// an order to get wrong.
	moved := []*Pin{sinks[1].Pin("A"), sinks[2].Pin("A")}
	before, mark, saved := shapeOf(d), d.NameMark(), slices.Clone(net.Loads)
	buf, err := d.InsertBuffer(net, moved, "BUF_X2_SVT")
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Loads) != 3 { // two original sinks + buffer input
		t.Errorf("original net has %d loads, want 3", len(net.Loads))
	}
	bufNet := buf.Pin("Z").Net
	if bufNet == nil || len(bufNet.Loads) != 2 {
		t.Fatalf("buffer net misconnected: %+v", bufNet)
	}
	for _, m := range moved {
		if m.Net != bufNet {
			t.Errorf("moved pin %s not on buffer net", m.FullName())
		}
	}
	// Taking the buffer out again leaves no trace, and the rewound name
	// sequence hands the next insertion the same names.
	names := [2]string{buf.Name, bufNet.Name}
	d.RemoveBuffer(buf, saved)
	d.RewindNames(mark)
	if err := before.diff(d); err != nil {
		t.Fatalf("insert → remove: %v", err)
	}
	again, err := d.InsertBuffer(net, moved, "BUF_X2_SVT")
	if err != nil {
		t.Fatal(err)
	}
	if got := [2]string{again.Name, again.Pin("Z").Net.Name}; got != names {
		t.Errorf("re-insertion named %v, first insertion %v", got, names)
	}
	// Moving a pin that is not on the net must fail.
	other, _ := d.AddNet("other")
	oc, _ := d.AddCell("oc", "INV_X1_SVT", In("A"), Out("Z"))
	if err := d.Connect(oc, "A", other); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertBuffer(net, []*Pin{oc.Pin("A")}, "BUF_X2_SVT"); err == nil {
		t.Error("buffering a foreign pin succeeded")
	}
}

func TestRemoveCellAndClean(t *testing.T) {
	d := buildInvChain(t)
	inv2 := d.Cell("inv2")
	mid := d.Net("mid")
	d.RemoveCell(inv2)
	if d.Cell("inv2") != nil {
		t.Error("cell still present after removal")
	}
	if len(mid.Loads) != 0 {
		t.Error("removed cell still loads mid net")
	}
	// The out net is now undriven but stays, attached to its port.
	if d.Net("out") == nil {
		t.Error("undriven port net removed with its driver")
	}
	// What left the design has no position in it; what stayed is dense.
	if inv2.Index() != -1 {
		t.Errorf("removed cell has Index %d, want -1", inv2.Index())
	}
	checkStructure(t, d)
}

func TestFreshNameUnique(t *testing.T) {
	d := New("fresh")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		name := d.FreshName("buf")
		if seen[name] {
			t.Fatalf("FreshName repeated %q", name)
		}
		seen[name] = true
		if _, err := d.AddNet(name); err != nil { // occupy the name
			t.Fatal(err)
		}
	}
}

func TestCellAccessors(t *testing.T) {
	d := New("acc")
	c, _ := d.AddCell("g", "NAND2_X1_SVT", In("A"), In("B"), Out("Z"))
	if got := len(c.Inputs()); got != 2 {
		t.Errorf("Inputs len = %d", got)
	}
	if c.Output() == nil || c.Output().Name != "Z" {
		t.Error("Output accessor wrong")
	}
	if c.Pin("A").FullName() != "g/A" {
		t.Errorf("FullName = %s", c.Pin("A").FullName())
	}
	if Input.String() != "input" || Output.String() != "output" {
		t.Error("PinDir.String wrong")
	}
	c.SetType("NAND2_X2_SVT")
	if c.TypeName != "NAND2_X2_SVT" {
		t.Error("SetType did not apply")
	}
}

func TestNetFanoutCountsOutputPort(t *testing.T) {
	d := New("fo")
	out, _ := d.AddPort("o", Output)
	c, _ := d.AddCell("c", "INV_X1_SVT", In("A"), Out("Z"))
	if err := d.Connect(c, "Z", out.Net); err != nil {
		t.Fatal(err)
	}
	if got := out.Net.Fanout(); got != 1 {
		t.Errorf("fanout = %d, want 1 (output port counts)", got)
	}
}

// shape records every pointer, order and name binding a design holds: two
// shapes of one design differ exactly when an edit left a trace.
type shape struct {
	cells   []*Cell
	nets    []*Net
	links   []*Pin // per net: its driver, its loads in order, nil
	pinNets []*Net // per cell pin, in cell then pin order
	mark    int
	named   [2]int // entries in the cell and net name maps
}

func shapeOf(d *Design) shape {
	s := shape{
		cells: slices.Clone(d.Cells), nets: slices.Clone(d.Nets), mark: d.NameMark(),
		named: [2]int{len(d.cellsByName), len(d.netsByName)},
	}
	for _, n := range d.Nets {
		s.links = append(append(append(s.links, n.Driver), n.Loads...), nil)
	}
	for _, c := range d.Cells {
		for _, p := range c.Pins {
			s.pinNets = append(s.pinNets, p.Net)
		}
	}
	return s
}

// diff reports the first way d departs from the recorded shape.
func (s shape) diff(d *Design) error {
	now := shapeOf(d)
	switch {
	case !slices.Equal(s.cells, now.cells):
		return fmt.Errorf("cell list changed: %d cells, were %d", len(now.cells), len(s.cells))
	case !slices.Equal(s.nets, now.nets):
		return fmt.Errorf("net list changed: %d nets, were %d", len(now.nets), len(s.nets))
	case !slices.Equal(s.links, now.links):
		return fmt.Errorf("a net's driver or load order changed")
	case !slices.Equal(s.pinNets, now.pinNets):
		return fmt.Errorf("a pin changed nets")
	case s.mark != now.mark:
		return fmt.Errorf("NameMark %d, was %d", now.mark, s.mark)
	case s.named != now.named:
		return fmt.Errorf("name maps hold %v cells/nets, held %v", now.named, s.named)
	}
	return nil
}
