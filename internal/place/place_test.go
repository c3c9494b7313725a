package place

import (
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
)

func lib() *liberty.Library {
	return liberty.Generate(liberty.Node16,
		liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}, liberty.GenOptions{})
}

func mixedDesign(l *liberty.Library, seed int64) *netlist.Design {
	return circuits.Block(l, circuits.BlockSpec{
		Name: "mix", Inputs: 16, Outputs: 16, FFs: 48, Gates: 800,
		Seed: seed, VtMix: [3]float64{0.25, 0.5, 0.25},
	})
}

func TestPlacementLegal(t *testing.T) {
	l := lib()
	d := mixedDesign(l, 1)
	p, err := New(d, l, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell placed exactly once; no overlaps; rows within capacity.
	seen := map[*netlist.Cell]bool{}
	for r := 0; r < p.Rows(); r++ {
		site := 0
		for _, c := range p.RowCells(r) {
			loc := p.Loc(c)
			if loc.Row != r || loc.Site != site {
				t.Fatalf("cell %s location inconsistent: %+v at site %d", c.Name, loc, site)
			}
			if seen[c] {
				t.Fatalf("cell %s placed twice", c.Name)
			}
			seen[c] = true
			site += loc.Width
		}
		if site > 200 {
			t.Fatalf("row %d overflows: %d sites", r, site)
		}
	}
	if len(seen) != len(d.Cells) {
		t.Fatalf("placed %d of %d cells", len(seen), len(d.Cells))
	}
}

func TestMinIAViolationsExistWithMixedVt(t *testing.T) {
	l := lib()
	d := mixedDesign(l, 3)
	p, err := New(d, l, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	viols := p.Violations(DefaultMinIA)
	if len(viols) == 0 {
		t.Fatal("mixed-Vt dense placement produced no MinIA violations; model inert")
	}
	for _, v := range viols {
		if v.WidthSites >= DefaultMinIA.MinWidthSites {
			t.Errorf("violation with width %d >= rule %d", v.WidthSites, DefaultMinIA.MinWidthSites)
		}
		for _, c := range v.Cells {
			if p.VtOf(c) != v.Vt {
				t.Error("violation island contains mixed Vt")
			}
		}
	}
}

func TestSingleVtHasNoViolations(t *testing.T) {
	l := lib()
	d := circuits.Block(l, circuits.BlockSpec{
		Name: "mono", Inputs: 8, Outputs: 8, FFs: 16, Gates: 300, Seed: 4,
	}) // default all-SVT
	p, err := New(d, l, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if viols := p.Violations(DefaultMinIA); len(viols) != 0 {
		t.Errorf("all-SVT design has %d violations", len(viols))
	}
}

func TestFixMinIAReducesViolations(t *testing.T) {
	l := lib()
	d := mixedDesign(l, 5)
	p, err := New(d, l, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	res := p.FixMinIA(DefaultFixOptions())
	if res.Initial == 0 {
		t.Fatal("no initial violations to fix")
	}
	if res.Remaining > res.Initial/10 {
		t.Errorf("fixer left %d of %d violations (>10%%)", res.Remaining, res.Initial)
	}
	if res.Reordered == 0 && res.VtChanged == 0 {
		t.Error("fixer reported no actions")
	}
	// Placement must remain legal.
	for r := 0; r < p.Rows(); r++ {
		site := 0
		for _, c := range p.RowCells(r) {
			loc := p.Loc(c)
			if loc.Site != site {
				t.Fatalf("row %d illegal after fix", r)
			}
			site += loc.Width
		}
	}
	// Re-scan agrees with reported remaining count.
	if got := len(p.Violations(DefaultMinIA)); got != res.Remaining {
		t.Errorf("re-scan %d != reported %d", got, res.Remaining)
	}
}

func TestFixVtChangeNeverSlowsCells(t *testing.T) {
	l := lib()
	d := mixedDesign(l, 6)
	p, err := New(d, l, 200, 13)
	if err != nil {
		t.Fatal(err)
	}
	before := map[*netlist.Cell]liberty.VtClass{}
	for _, c := range d.Cells {
		before[c] = p.VtOf(c)
	}
	p.FixMinIA(DefaultFixOptions())
	for _, c := range d.Cells {
		if vtRank(p.VtOf(c)) > vtRank(before[c]) {
			t.Errorf("cell %s re-implanted slower: %v -> %v", c.Name, before[c], p.VtOf(c))
		}
	}
}

func TestFixWithoutVtChange(t *testing.T) {
	l := lib()
	d := mixedDesign(l, 7)
	p, err := New(d, l, 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultFixOptions()
	opts.AllowVtChange = false
	res := p.FixMinIA(opts)
	if res.VtChanged != 0 {
		t.Error("Vt changes applied despite being disabled")
	}
	if res.Remaining >= res.Initial {
		t.Errorf("reorder-only fixing achieved nothing: %d -> %d", res.Initial, res.Remaining)
	}
}

func TestSwapCellsRelegalizes(t *testing.T) {
	l := lib()
	d := mixedDesign(l, 8)
	p, err := New(d, l, 150, 19)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows() < 2 {
		t.Skip("need two rows")
	}
	a := p.RowCells(0)[0]
	b := p.RowCells(1)[0]
	p.SwapCells(a, b)
	if p.Loc(a).Row != 1 || p.Loc(b).Row != 0 {
		t.Error("cross-row swap rows wrong")
	}
	for r := 0; r < 2; r++ {
		site := 0
		for _, c := range p.RowCells(r) {
			if p.Loc(c).Site != site {
				t.Fatalf("row %d sites broken after swap", r)
			}
			site += p.Loc(c).Width
		}
	}
}
