package liberty

import (
	"math"
	"testing"
	"testing/quick"
)

func planeTable() *Table2D {
	// f(r,c) = 2r + 3c: bilinear interpolation must reproduce it exactly.
	return NewTable2D(
		[]float64{10, 20, 40, 80},
		[]float64{1, 2, 4, 8, 16},
		func(r, c float64) float64 { return 2*r + 3*c },
	)
}

func TestTableLookupExactOnGrid(t *testing.T) {
	tb := planeTable()
	for _, r := range tb.RowAxis {
		for _, c := range tb.ColAxis {
			want := 2*r + 3*c
			if got := tb.Lookup(r, c); math.Abs(got-want) > 1e-9 {
				t.Errorf("Lookup(%v,%v) = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestTableLookupInterpolatesPlane(t *testing.T) {
	tb := planeTable()
	pts := [][2]float64{{15, 3}, {30, 1.5}, {25, 10}, {70, 15}}
	for _, p := range pts {
		want := 2*p[0] + 3*p[1]
		if got := tb.Lookup(p[0], p[1]); math.Abs(got-want) > 1e-9 {
			t.Errorf("Lookup(%v,%v) = %v, want %v", p[0], p[1], got, want)
		}
	}
}

func TestTableLookupExtrapolates(t *testing.T) {
	tb := planeTable()
	// A plane extrapolates exactly in all directions.
	pts := [][2]float64{{5, 0.5}, {100, 20}, {5, 20}, {100, 0.5}}
	for _, p := range pts {
		want := 2*p[0] + 3*p[1]
		if got := tb.Lookup(p[0], p[1]); math.Abs(got-want) > 1e-9 {
			t.Errorf("extrapolated Lookup(%v,%v) = %v, want %v", p[0], p[1], got, want)
		}
	}
}

func TestTableSingleRowOrColumn(t *testing.T) {
	rowOnly := &Table2D{RowAxis: []float64{1}, ColAxis: []float64{0, 10}, Values: [][]float64{{0, 100}}}
	if got := rowOnly.Lookup(99, 5); math.Abs(got-50) > 1e-9 {
		t.Errorf("single-row lookup = %v, want 50", got)
	}
	colOnly := &Table2D{RowAxis: []float64{0, 10}, ColAxis: []float64{1}, Values: [][]float64{{0}, {100}}}
	if got := colOnly.Lookup(5, 99); math.Abs(got-50) > 1e-9 {
		t.Errorf("single-col lookup = %v, want 50", got)
	}
	scalar := &Table2D{RowAxis: []float64{1}, ColAxis: []float64{1}, Values: [][]float64{{42}}}
	if got := scalar.Lookup(-5, 5000); got != 42 {
		t.Errorf("scalar lookup = %v, want 42", got)
	}
}

func TestTableScaleAndMap(t *testing.T) {
	tb := planeTable()
	doubled := tb.Scale(2)
	if got, want := doubled.Lookup(20, 4), 2*(2*20+3*4.0); math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled lookup = %v, want %v", got, want)
	}
	// Original untouched.
	if got := tb.Lookup(20, 4); math.Abs(got-(2*20+3*4.0)) > 1e-9 {
		t.Error("Scale mutated the receiver")
	}
	shifted := tb.Map(func(v float64) float64 { return v + 7 })
	if got, want := shifted.Lookup(10, 1), 2*10+3*1.0+7; math.Abs(got-want) > 1e-9 {
		t.Errorf("mapped lookup = %v, want %v", got, want)
	}
}

func TestTableValidate(t *testing.T) {
	good := planeTable()
	if err := good.Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	bad := &Table2D{RowAxis: []float64{1, 1}, ColAxis: []float64{1}, Values: [][]float64{{1}, {2}}}
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing axis accepted")
	}
	ragged := &Table2D{RowAxis: []float64{1, 2}, ColAxis: []float64{1, 2}, Values: [][]float64{{1, 2}, {3}}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged values accepted")
	}
	nan := &Table2D{RowAxis: []float64{1}, ColAxis: []float64{1}, Values: [][]float64{{math.NaN()}}}
	if err := nan.Validate(); err == nil {
		t.Error("NaN value accepted")
	}
	empty := &Table2D{}
	if err := empty.Validate(); err == nil {
		t.Error("empty table accepted")
	}
	// A NaN axis point compares false both ways, so it must be refused as
	// non-finite: between two points, and as the only point of an axis.
	for _, ax := range [][]float64{{1, math.NaN(), 3}, {math.NaN()}, {math.Inf(1)}} {
		vals := make([][]float64, len(ax))
		for i := range vals {
			vals[i] = []float64{1}
		}
		tb := &Table2D{RowAxis: ax, ColAxis: []float64{1}, Values: vals}
		if err := tb.Validate(); err == nil {
			t.Errorf("row axis %v accepted", ax)
		}
		tb = &Table2D{RowAxis: []float64{1}, ColAxis: ax, Values: [][]float64{make([]float64, len(ax))}}
		if err := tb.Validate(); err == nil {
			t.Errorf("col axis %v accepted", ax)
		}
	}
}

// Property: lookup of a monotone table is monotone along both axes within
// the table's span.
func TestTableLookupMonotoneProperty(t *testing.T) {
	tb := NewTable2D(
		[]float64{1, 5, 25, 125},
		[]float64{1, 4, 16, 64},
		func(r, c float64) float64 { return 0.7*r*c + 3*r + c },
	)
	f := func(r1, c1, r2, c2 float64) bool {
		norm := func(x, lo, hi float64) float64 {
			return lo + math.Mod(math.Abs(x), hi-lo)
		}
		a := [2]float64{norm(r1, 1, 125), norm(c1, 1, 64)}
		b := [2]float64{norm(r2, 1, 125), norm(c2, 1, 64)}
		if a[0] > b[0] {
			a[0], b[0] = b[0], a[0]
		}
		if a[1] > b[1] {
			a[1], b[1] = b[1], a[1]
		}
		return tb.Lookup(a[0], a[1]) <= tb.Lookup(b[0], b[1])+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
