package netlist

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzDesignOps drives the netlist construction/editing API with an
// arbitrary op script decoded from fuzz bytes. The contract under test:
// no API sequence may panic (misuse answers with an error), Validate
// never panics, a Clone of any reachable design validates identically
// to its original, RemoveCell/CleanDanglingNets leave consistent
// driver/load structure behind, and InsertBuffer → RemoveBuffer is an exact
// round trip on whatever design the script reached.
func FuzzDesignOps(f *testing.F) {
	dir := filepath.Join("testdata", "corpus", "designops")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("seed corpus %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		d := New("fuzz")
		// Bounded object universe so scripts compose: ops address cells,
		// nets and pins by small indices into the live slices.
		cell := func(b byte) *Cell {
			if len(d.Cells) == 0 {
				return nil
			}
			return d.Cells[int(b)%len(d.Cells)]
		}
		net := func(b byte) *Net {
			if len(d.Nets) == 0 {
				return nil
			}
			return d.Nets[int(b)%len(d.Nets)]
		}
		var marks []int
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op % 12 {
			case 0:
				d.AddCell(d.FreshName("u"), fmt.Sprintf("T%d", arg%4), In("A"), In("B"), Out("Z"))
			case 1:
				d.AddNet(d.FreshName("n"))
			case 2:
				dir := Input
				if arg%2 == 1 {
					dir = Output
				}
				d.AddPort(d.FreshName("p"), dir)
			case 3:
				c, n := cell(arg), net(arg/3)
				if c != nil && n != nil {
					d.Connect(c, c.Pins[int(arg)%len(c.Pins)].Name, n)
				}
			case 4:
				if c := cell(arg); c != nil {
					d.Disconnect(c.Pins[int(arg)%len(c.Pins)])
				}
			case 5:
				if n := net(arg); n != nil {
					var moved []*Pin
					for j, l := range n.Loads {
						if j%2 == int(arg)%2 {
							moved = append(moved, l)
						}
					}
					d.InsertBuffer(n, moved, "BUF_X1_SVT")
				}
			case 6:
				if c := cell(arg); c != nil {
					d.RemoveCell(c)
				}
			case 7:
				d.CleanDanglingNets()
			case 8:
				if c := cell(arg); c != nil {
					c.SetType(fmt.Sprintf("T%d", arg%4))
				}
			case 9:
				marks = append(marks, d.NameMark())
			case 10:
				if len(marks) > 0 {
					d.RewindNames(marks[len(marks)-1])
					marks = marks[:len(marks)-1]
				}
			case 11:
				if n := net(arg); n != nil && len(n.Loads) > 0 {
					d.InsertBuffer(n, []*Pin{n.Loads[int(arg)%len(n.Loads)]}, "BUF_X2_SVT")
				}
			}
		}
		// Whatever the script built, a buffer goes in and comes out again
		// without a trace.
		for _, n := range d.Nets {
			if len(n.Loads) == 0 {
				continue
			}
			before, saved := shapeOf(d), slices.Clone(n.Loads)
			buf, err := d.InsertBuffer(n, saved[:(len(saved)+1)/2], "BUF_X1_SVT")
			if err != nil {
				t.Fatalf("InsertBuffer on net %q: %v", n.Name, err)
			}
			d.RemoveBuffer(buf, saved)
			d.RewindNames(before.mark)
			if err := before.diff(d); err != nil {
				t.Fatalf("insert → remove on net %q: %v", n.Name, err)
			}
			break
		}
		errsBefore := len(d.Validate())
		clone := d.Clone()
		if got := len(clone.Validate()); got != errsBefore {
			t.Fatalf("clone validates differently: %d errors vs %d on the original", got, errsBefore)
		}
		checkStructure(t, d)
		checkStructure(t, clone)
		rebuilt, err := FromBlueprint(d.Blueprint())
		if err != nil {
			t.Fatalf("FromBlueprint(Blueprint()): %v", err)
		}
		checkStructure(t, rebuilt)
		d.Stats()
	})
}

// checkStructure asserts the bidirectional pin↔net bookkeeping every op
// must preserve: a connected pin appears in exactly the right role on
// its net, and every driver/load the net lists points back at it — and that
// the design's numbering is dense: every object's Index is its position.
func checkStructure(t *testing.T, d *Design) {
	t.Helper()
	for i, c := range d.Cells {
		if c.Index() != i {
			t.Fatalf("cell %q at position %d has Index %d", c.Name, i, c.Index())
		}
		for k, p := range c.Pins {
			if p.Index() != k {
				t.Fatalf("pin %s at position %d has Index %d", p.FullName(), k, p.Index())
			}
			if want := p.Cell.Name + "/" + p.Name; p.FullName() != want {
				t.Fatalf("pin %s of cell %q has FullName %q", p.Name, c.Name, p.FullName())
			}
		}
	}
	for i, p := range d.Ports {
		if p.Index() != i {
			t.Fatalf("port %q at position %d has Index %d", p.Name, i, p.Index())
		}
	}
	for i, n := range d.Nets {
		if n.Index() != i {
			t.Fatalf("net %q at position %d has Index %d", n.Name, i, n.Index())
		}
		if n.Driver != nil && n.Driver.Net != n {
			t.Fatalf("net %q driver %s points at net %v", n.Name, n.Driver.FullName(), n.Driver.Net)
		}
		for _, l := range n.Loads {
			if l.Net != n {
				t.Fatalf("net %q load %s points at net %v", n.Name, l.FullName(), l.Net)
			}
		}
	}
	for _, c := range d.Cells {
		for _, p := range c.Pins {
			if p.Net == nil {
				continue
			}
			found := p.Net.Driver == p
			for _, l := range p.Net.Loads {
				if l == p {
					found = true
				}
			}
			if !found {
				t.Fatalf("pin %s claims net %q but the net doesn't list it", p.FullName(), p.Net.Name)
			}
		}
	}
}
