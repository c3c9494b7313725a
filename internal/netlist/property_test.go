package netlist

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDesign builds a random but structurally legal design from a seed.
func randomDesign(seed int64, nCells int) *Design {
	rng := rand.New(rand.NewSource(seed))
	d := New("prop")
	in, _ := d.AddPort("in", Input)
	nets := []*Net{in.Net}
	for i := 0; i < nCells; i++ {
		nIn := 1 + rng.Intn(3)
		decls := []PinDecl{Out("Z")}
		for k := 0; k < nIn; k++ {
			decls = append(decls, In(fmt.Sprintf("I%d", k)))
		}
		c, err := d.AddCell(fmt.Sprintf("c%d", i), "GATE", decls...)
		if err != nil {
			panic(err)
		}
		for k := 0; k < nIn; k++ {
			src := nets[rng.Intn(len(nets))]
			if err := d.Connect(c, fmt.Sprintf("I%d", k), src); err != nil {
				panic(err)
			}
		}
		out, _ := d.AddNet(fmt.Sprintf("n%d", i))
		if err := d.Connect(c, "Z", out); err != nil {
			panic(err)
		}
		nets = append(nets, out)
	}
	return d
}

// Property: a randomly generated design is always valid, and stays valid
// under random sequences of structural edits (buffer insertion, cell
// removal + net cleanup, retyping).
func TestRandomEditSequencesPreserveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDesign(seed, 20+rng.Intn(30))
		if errs := d.Validate(); len(errs) != 0 {
			t.Logf("seed %d: fresh design invalid: %v", seed, errs[0])
			return false
		}
		for step := 0; step < 25; step++ {
			switch rng.Intn(3) {
			case 0: // buffer a random net's load subset
				n := d.Nets[rng.Intn(len(d.Nets))]
				if len(n.Loads) < 2 {
					continue
				}
				k := 1 + rng.Intn(len(n.Loads)-1)
				moved := append([]*Pin(nil), n.Loads[:k]...)
				if _, err := d.InsertBuffer(n, moved, "BUF"); err != nil {
					t.Logf("seed %d: InsertBuffer: %v", seed, err)
					return false
				}
			case 1: // retype a random cell
				if len(d.Cells) > 0 {
					d.Cells[rng.Intn(len(d.Cells))].SetType("GATE2")
				}
			case 2: // remove a random sink-only cell (keeps drivers intact)
				var sinks []*Cell
				for _, c := range d.Cells {
					out := c.Output()
					if out == nil || out.Net == nil || out.Net.Fanout() == 0 {
						sinks = append(sinks, c)
					}
				}
				if len(sinks) > 0 {
					d.RemoveCell(sinks[rng.Intn(len(sinks))])
				}
			}
			if errs := d.Validate(); len(errs) != 0 {
				t.Logf("seed %d step %d: invalid after edit: %v", seed, step, errs[0])
				return false
			}
		}
		// Bookkeeping consistency and dense numbering, on the design and on
		// both of its copies.
		checkStructure(t, d)
		checkStructure(t, d.Clone())
		rebuilt, err := FromBlueprint(d.Blueprint())
		if err != nil {
			t.Logf("seed %d: FromBlueprint(Blueprint()): %v", seed, err)
			return false
		}
		checkStructure(t, rebuilt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Stats never miscounts after arbitrary valid buffer insertions.
func TestStatsConsistentProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDesign(seed, 15)
		before := d.Stats()
		n := d.Nets[0]
		if len(n.Loads) >= 2 {
			if _, err := d.InsertBuffer(n, n.Loads[:1], "BUF"); err != nil {
				return false
			}
		} else {
			return true
		}
		after := d.Stats()
		return after.Cells == before.Cells+1 && after.Nets == before.Nets+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
