// Package place provides a row/site placement model and the minimum
// implant area (MinIA) rule machinery of paper §2.4 / Figure 6(a): at
// foundry 20nm and below, a narrow island of one Vt implant sandwiched
// between cells of a different Vt violates the implant layer's minimum
// width rule, which makes post-route Vt swap placement-dependent and can
// force ECO place-and-route changes.
package place

import (
	"fmt"
	"math/rand"
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/units"
)

// Loc is a legalized cell location.
type Loc struct {
	Row int
	// Site is the starting site index within the row.
	Site int
	// Width is the cell width in sites.
	Width int
}

// Placement is a legalized row placement of a design.
type Placement struct {
	D   *netlist.Design
	Lib *liberty.Library
	// SiteWidth is the site pitch, µm.
	SiteWidth units.Um
	// RowSites is the row capacity in sites.
	RowSites int

	rows [][]*netlist.Cell // cells in site order per row
	loc  map[*netlist.Cell]*Loc
}

// widthSites converts a master's area to a site count (row height fixed).
func widthSites(m *liberty.Cell, siteWidth float64) int {
	const rowHeightUm = 0.6
	w := m.Area / rowHeightUm / siteWidth
	n := int(w + 0.999)
	if n < 1 {
		n = 1
	}
	return n
}

// New places the design: cells are packed into rows in a seeded random
// order (a stand-in for a real placer's mixed ordering), left-justified and
// abutted — the dense-row situation where MinIA islands appear.
func New(d *netlist.Design, lib *liberty.Library, rowSites int, seed int64) (*Placement, error) {
	// Site pitch chosen so an X1 cell spans ~2 sites: the MinIA rule width
	// (3 sites) then exceeds the narrowest cells, which is exactly the
	// sub-20nm situation that makes single-cell Vt islands illegal.
	p := &Placement{
		D: d, Lib: lib, SiteWidth: 0.20, RowSites: rowSites,
		loc: make(map[*netlist.Cell]*Loc),
	}
	cells := append([]*netlist.Cell(nil), d.Cells...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	row, site := 0, 0
	var cur []*netlist.Cell
	for _, c := range cells {
		m := lib.Cell(c.TypeName)
		if m == nil {
			return nil, fmt.Errorf("place: unknown master %q", c.TypeName)
		}
		w := widthSites(m, p.SiteWidth)
		if site+w > rowSites {
			p.rows = append(p.rows, cur)
			cur = nil
			row++
			site = 0
		}
		p.loc[c] = &Loc{Row: row, Site: site, Width: w}
		cur = append(cur, c)
		site += w
	}
	if len(cur) > 0 {
		p.rows = append(p.rows, cur)
	}
	return p, nil
}

// Loc returns a cell's location.
func (p *Placement) Loc(c *netlist.Cell) *Loc { return p.loc[c] }

// Rows returns the number of rows.
func (p *Placement) Rows() int { return len(p.rows) }

// RowCells returns the cells of a row in site order.
func (p *Placement) RowCells(row int) []*netlist.Cell { return p.rows[row] }

// VtOf returns the Vt class of a placed cell's master.
func (p *Placement) VtOf(c *netlist.Cell) liberty.VtClass {
	return p.Lib.Cell(c.TypeName).Vt
}

// MinIARule is the implant minimum-width constraint.
type MinIARule struct {
	// MinWidthSites is the minimum same-Vt island width, in sites.
	MinWidthSites int
}

// DefaultMinIA is a 3-site (≈0.3 µm) implant minimum width.
var DefaultMinIA = MinIARule{MinWidthSites: 3}

// Violation is a same-Vt island narrower than the rule, bounded on both
// sides by different-Vt cells (row ends satisfy the rule: the implant can
// extend into the row-end spacing).
type Violation struct {
	Row   int
	Vt    liberty.VtClass
	Cells []*netlist.Cell
	// WidthSites is the island's total width.
	WidthSites int
}

// islands partitions a row into maximal same-Vt runs.
type island struct {
	vt     liberty.VtClass
	lo, hi int // cell index range [lo, hi)
	width  int
}

func (p *Placement) rowIslands(row int) []island {
	cells := p.rows[row]
	var out []island
	for i := 0; i < len(cells); {
		vt := p.VtOf(cells[i])
		j := i
		w := 0
		for j < len(cells) && p.VtOf(cells[j]) == vt {
			w += p.loc[cells[j]].Width
			j++
		}
		out = append(out, island{vt: vt, lo: i, hi: j, width: w})
		i = j
	}
	return out
}

// Violations scans every row for MinIA violations.
func (p *Placement) Violations(rule MinIARule) []Violation {
	var out []Violation
	for r := range p.rows {
		isl := p.rowIslands(r)
		for k, is := range isl {
			// Row-end islands can extend the implant outward.
			if k == 0 || k == len(isl)-1 {
				continue
			}
			if is.width < rule.MinWidthSites {
				out = append(out, Violation{
					Row: r, Vt: is.vt,
					Cells:      append([]*netlist.Cell(nil), p.rows[r][is.lo:is.hi]...),
					WidthSites: is.width,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Cells[0].Name < out[j].Cells[0].Name
	})
	return out
}

// resite recomputes site offsets of a row after reordering.
func (p *Placement) resite(row int) {
	site := 0
	for _, c := range p.rows[row] {
		l := p.loc[c]
		l.Row = row
		l.Site = site
		site += l.Width
	}
}

// SwapCells exchanges the row positions of two cells (possibly across
// rows), relegalizing both rows. It is the primitive ECO move.
func (p *Placement) SwapCells(a, b *netlist.Cell) {
	la, lb := p.loc[a], p.loc[b]
	ra, rb := p.rows[la.Row], p.rows[lb.Row]
	var ia, ib int
	for i, c := range ra {
		if c == a {
			ia = i
		}
	}
	for i, c := range rb {
		if c == b {
			ib = i
		}
	}
	ra[ia], rb[ib] = b, a
	rowA, rowB := la.Row, lb.Row
	p.resite(rowA)
	if rowB != rowA {
		p.resite(rowB)
	}
}

// Displacement returns the µm distance between two cells' positions.
func (p *Placement) Displacement(a, b *netlist.Cell) units.Um {
	la, lb := p.loc[a], p.loc[b]
	dr := float64(la.Row - lb.Row)
	if dr < 0 {
		dr = -dr
	}
	ds := float64(la.Site - lb.Site)
	if ds < 0 {
		ds = -ds
	}
	return ds*p.SiteWidth + dr*0.6
}
