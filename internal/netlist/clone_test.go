package netlist

import (
	"fmt"
	"testing"
)

// cloneFixture builds a small design exercising every structural feature a
// clone must reproduce: ports, multi-load nets, an output-port sink, and a
// FreshName-created buffer.
func cloneFixture(t *testing.T) *Design {
	t.Helper()
	d := New("fixture")
	in, err := d.AddPort("in", Input)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("out", Output); err != nil {
		t.Fatal(err)
	}
	g1, err := d.AddCell("g1", "INV_X1_SVT", In("A"), Out("Z"))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := d.AddCell("g2", "NAND2_X1_SVT", In("A"), In("B"), Out("Z"))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := d.AddNet("mid")
	if err != nil {
		t.Fatal(err)
	}
	mustConnect := func(c *Cell, pin string, n *Net) {
		t.Helper()
		if err := d.Connect(c, pin, n); err != nil {
			t.Fatal(err)
		}
	}
	mustConnect(g1, "A", in.Net)
	mustConnect(g1, "Z", mid)
	mustConnect(g2, "A", mid)
	mustConnect(g2, "B", in.Net)
	mustConnect(g2, "Z", d.Net("out"))
	if _, err := d.InsertBuffer(mid, []*Pin{g2.Pin("A")}, "BUF_X1_SVT"); err != nil {
		t.Fatal(err)
	}
	return d
}

// connectivitySig renders the full structure of a design as a string, so
// two designs can be compared for exact structural equality.
func connectivitySig(d *Design) string {
	s := d.Name + "\n"
	for _, c := range d.Cells {
		s += "cell " + c.Name + " " + c.TypeName + "\n"
		for _, p := range c.Pins {
			net := "<nil>"
			if p.Net != nil {
				net = p.Net.Name
			}
			s += fmt.Sprintf("  pin %s %v net=%s\n", p.Name, p.Dir, net)
		}
	}
	for _, n := range d.Nets {
		drv := "<nil>"
		if n.Driver != nil {
			drv = n.Driver.FullName()
		}
		s += "net " + n.Name + " driver=" + drv + " loads="
		for _, l := range n.Loads {
			s += l.FullName() + ","
		}
		if n.Port != nil {
			s += fmt.Sprintf(" port=%s/%v", n.Port.Name, n.Port.Dir)
		}
		s += "\n"
	}
	for _, p := range d.Ports {
		s += fmt.Sprintf("port %s %v net=%s\n", p.Name, p.Dir, p.Net.Name)
	}
	return s
}

func TestCloneStructureIdentical(t *testing.T) {
	d := cloneFixture(t)
	c := d.Clone()
	if got, want := connectivitySig(c), connectivitySig(d); got != want {
		t.Fatalf("clone structure differs:\n--- original ---\n%s--- clone ---\n%s", want, got)
	}
	if errs := c.Validate(); len(errs) != 0 {
		t.Fatalf("clone fails validation: %v", errs)
	}
	// No shared objects: every pointer must be distinct.
	for i, cc := range c.Cells {
		if cc == d.Cells[i] {
			t.Fatalf("cell %s shared between clone and original", cc.Name)
		}
		for j, p := range cc.Pins {
			if p == d.Cells[i].Pins[j] {
				t.Fatalf("pin %s shared", p.FullName())
			}
		}
	}
	for i, n := range c.Nets {
		if n == d.Nets[i] {
			t.Fatalf("net %s shared", n.Name)
		}
	}
}

func TestCloneIndependentEdits(t *testing.T) {
	d := cloneFixture(t)
	c := d.Clone()
	before := connectivitySig(d)
	// Mutate the clone: retype, insert a buffer, remove a cell.
	c.Cell("g1").SetType("INV_X4_SVT")
	if _, err := c.InsertBuffer(c.Net("in"), []*Pin{c.Cell("g2").Pin("B")}, "BUF_X1_SVT"); err != nil {
		t.Fatal(err)
	}
	if got := connectivitySig(d); got != before {
		t.Fatalf("editing clone mutated original:\n%s", got)
	}
	if d.Cell("g1").TypeName != "INV_X1_SVT" {
		t.Fatalf("original cell retyped via clone")
	}
}

func TestCloneFreshNameSequenceMatches(t *testing.T) {
	d := cloneFixture(t)
	c := d.Clone()
	for i := 0; i < 5; i++ {
		if dn, cn := d.FreshName("x"), c.FreshName("x"); dn != cn {
			t.Fatalf("FreshName diverged at %d: %q vs %q", i, dn, cn)
		}
	}
}

func TestNameMarkRewind(t *testing.T) {
	d := cloneFixture(t)
	mark := d.NameMark()
	n := d.Net("mid")
	var loads []*Pin
	loads = append(loads, n.Loads...)
	buf, err := d.InsertBuffer(n, []*Pin{loads[0]}, "BUF_X1_SVT")
	if err != nil {
		t.Fatal(err)
	}
	name1 := buf.Name
	// Undo the insertion and rewind.
	d.RemoveBuffer(buf, loads)
	d.RewindNames(mark)
	buf2, err := d.InsertBuffer(n, []*Pin{loads[0]}, "BUF_X1_SVT")
	if err != nil {
		t.Fatal(err)
	}
	if buf2.Name != name1 {
		t.Fatalf("rewind did not restore name sequence: %q vs %q", buf2.Name, name1)
	}
	// Rewinding forward must be a no-op.
	d.RewindNames(d.NameMark() + 100)
	if d.FreshName("y") == "" {
		t.Fatal("FreshName broken after forward rewind attempt")
	}
}
