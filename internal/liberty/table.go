// Package liberty models standard-cell timing libraries in the style of the
// Liberty NLDM standard the paper discusses: two-dimensional delay and slew
// lookup tables indexed by input slew and output load, per-arc variation
// (sigma) tables in the style of LVF, flip-flop constraint tables, and a
// generator that characterizes whole multi-Vt, multi-drive libraries at any
// PVT point from an alpha-power-law device model.
//
// The package is the repository's stand-in for foundry .lib files: the paper
// traces timing-model history "lumped-C … Elmore … NLDM tables … CCS …
// AOCV, POCV and LVF" (§3.1), and the packages above this one implement that
// trajectory on top of these tables.
package liberty

import (
	"fmt"
	"math"
	"sort"
)

// Table2D is an NLDM-style lookup table: Values[i][j] is the table value at
// RowAxis[i] (input slew, ps) and ColAxis[j] (output load, fF). For
// constraint tables the axes are data slew and clock slew. Lookup is
// bilinear with linear extrapolation beyond the axis ends, matching
// commercial STA behaviour.
type Table2D struct {
	RowAxis []float64
	ColAxis []float64
	Values  [][]float64
}

// NewTable2D builds a table from axes and a characterization function.
func NewTable2D(rows, cols []float64, f func(r, c float64) float64) *Table2D {
	t := &Table2D{RowAxis: rows, ColAxis: cols, Values: make([][]float64, len(rows))}
	for i, r := range rows {
		t.Values[i] = make([]float64, len(cols))
		for j, c := range cols {
			t.Values[i][j] = f(r, c)
		}
	}
	return t
}

// segment finds the interpolation segment for x on axis: the index i of the
// lower bound and the fractional position t within [axis[i], axis[i+1]].
// Points beyond the ends extrapolate on the terminal segment.
func segment(axis []float64, x float64) (int, float64) {
	n := len(axis)
	if n == 1 {
		return 0, 0
	}
	i := sort.SearchFloat64s(axis, x)
	switch {
	case i == 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	lo, hi := axis[i-1], axis[i]
	if hi == lo {
		return i - 1, 0
	}
	return i - 1, (x - lo) / (hi - lo)
}

// Lookup evaluates the table at (row, col) with bilinear interpolation.
func (t *Table2D) Lookup(row, col float64) float64 {
	ri, rt := segment(t.RowAxis, row)
	ci, ct := segment(t.ColAxis, col)
	if len(t.RowAxis) == 1 && len(t.ColAxis) == 1 {
		return t.Values[0][0]
	}
	if len(t.RowAxis) == 1 {
		v0, v1 := t.Values[0][ci], t.Values[0][ci+1]
		return v0 + (v1-v0)*ct
	}
	if len(t.ColAxis) == 1 {
		v0, v1 := t.Values[ri][0], t.Values[ri+1][0]
		return v0 + (v1-v0)*rt
	}
	v00 := t.Values[ri][ci]
	v01 := t.Values[ri][ci+1]
	v10 := t.Values[ri+1][ci]
	v11 := t.Values[ri+1][ci+1]
	lo := v00 + (v01-v00)*ct
	hi := v10 + (v11-v10)*ct
	return lo + (hi-lo)*rt
}

// Scale returns a copy of the table with every value multiplied by k.
func (t *Table2D) Scale(k float64) *Table2D {
	return t.Map(func(v float64) float64 { return v * k })
}

// Map returns a copy of the table with f applied to every value.
func (t *Table2D) Map(f func(float64) float64) *Table2D {
	out := &Table2D{
		RowAxis: append([]float64(nil), t.RowAxis...),
		ColAxis: append([]float64(nil), t.ColAxis...),
		Values:  make([][]float64, len(t.Values)),
	}
	for i, row := range t.Values {
		out.Values[i] = make([]float64, len(row))
		for j, v := range row {
			out.Values[i][j] = f(v)
		}
	}
	return out
}

// Validate checks the structural invariants of the table: finite, strictly
// increasing axes and rectangular storage of finite values.
func (t *Table2D) Validate() error {
	if len(t.RowAxis) == 0 || len(t.ColAxis) == 0 {
		return fmt.Errorf("liberty: empty table axis")
	}
	if err := validateAxis("row", t.RowAxis); err != nil {
		return err
	}
	if err := validateAxis("col", t.ColAxis); err != nil {
		return err
	}
	if len(t.Values) != len(t.RowAxis) {
		return fmt.Errorf("liberty: %d value rows for %d axis rows", len(t.Values), len(t.RowAxis))
	}
	for i, row := range t.Values {
		if len(row) != len(t.ColAxis) {
			return fmt.Errorf("liberty: row %d has %d cols, want %d", i, len(row), len(t.ColAxis))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("liberty: non-finite value at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// validateAxis checks that every point of an axis is finite and greater
// than the one before: a NaN compares false both ways, so the order test
// alone would let it through.
func validateAxis(name string, ax []float64) error {
	for i, x := range ax {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("liberty: non-finite %s axis value at %d", name, i)
		}
		if i > 0 && x <= ax[i-1] {
			return fmt.Errorf("liberty: %s axis not increasing at %d", name, i)
		}
	}
	return nil
}
