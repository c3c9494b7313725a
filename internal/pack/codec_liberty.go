package pack

import (
	"fmt"
	"sort"

	"newgame/internal/liberty"
	"newgame/internal/pack/wire"
	"newgame/internal/units"
)

// encodeLibs writes the deduplicated library list. Order is the first-seen
// scenario order computed by collectLibs, so re-encoding a decoded snapshot
// is byte-stable.
func encodeLibs(w *wire.Writer, libs []*liberty.Library) error {
	w.U32(uint32(len(libs)))
	for _, l := range libs {
		if err := encodeLibrary(w, l); err != nil {
			return err
		}
	}
	return nil
}

func decodeLibs(r *wire.Reader) ([]*liberty.Library, error) {
	n := r.Count(8)
	if r.Err() != nil {
		return nil, r.Err()
	}
	libs := make([]*liberty.Library, 0, n)
	for i := 0; i < n; i++ {
		l, err := decodeLibrary(r)
		if err != nil {
			return nil, err
		}
		libs = append(libs, l)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return libs, nil
}

func encodeLibrary(w *wire.Writer, l *liberty.Library) error {
	w.String(l.Name)
	t := l.Tech
	w.String(t.Name)
	for _, v := range []float64{
		float64(t.VDDNominal), float64(t.Vt0), float64(t.VtStep), t.Alpha,
		t.KDrive, t.MobilityExp, t.VtTempCoeff, float64(t.CinUnit),
		float64(t.CparUnit), t.AreaUnit, float64(t.LeakUnit), t.LeakVtFactor,
		t.SlewDerate,
	} {
		w.F64(v)
	}
	p := l.PVT
	w.String(p.Process.Name)
	w.F64(p.Process.DriveFactor)
	w.F64(float64(p.Process.VtShift))
	w.F64(p.Process.RiseFallSkew)
	w.F64(float64(p.Voltage))
	w.F64(float64(p.Temp))
	// Cells go out sorted by name: the map is unordered and a stable
	// encoding keeps save→load→save byte-identical.
	cells := l.Cells()
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	w.U32(uint32(len(names)))
	for _, name := range names {
		encodeCell(w, cells[name])
	}
	return nil
}

func decodeLibrary(r *wire.Reader) (*liberty.Library, error) {
	name := r.String()
	var t liberty.TechParams
	t.Name = r.String()
	t.VDDNominal = units.Volt(r.F64())
	t.Vt0 = units.Volt(r.F64())
	t.VtStep = units.Volt(r.F64())
	t.Alpha = r.F64()
	t.KDrive = r.F64()
	t.MobilityExp = r.F64()
	t.VtTempCoeff = r.F64()
	t.CinUnit = units.FF(r.F64())
	t.CparUnit = units.FF(r.F64())
	t.AreaUnit = r.F64()
	t.LeakUnit = units.NW(r.F64())
	t.LeakVtFactor = r.F64()
	t.SlewDerate = r.F64()
	var p liberty.PVT
	p.Process.Name = r.String()
	p.Process.DriveFactor = r.F64()
	p.Process.VtShift = units.Volt(r.F64())
	p.Process.RiseFallSkew = r.F64()
	p.Voltage = units.Volt(r.F64())
	p.Temp = units.Celsius(r.F64())
	nCells := r.Count(8)
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Rebuilding via NewLibrary+Add reconstructs the per-function drive
	// ladders exactly as the original registration did.
	l := liberty.NewLibrary(name, t, p)
	for i := 0; i < nCells; i++ {
		c, err := decodeCell(r)
		if err != nil {
			return nil, err
		}
		if l.Cell(c.Name) != nil {
			return nil, fmt.Errorf("pack: library %q has duplicate cell %q", name, c.Name)
		}
		l.Add(c)
	}
	return l, r.Err()
}

func encodeCell(w *wire.Writer, c *liberty.Cell) {
	w.String(c.Name)
	w.String(c.Function)
	w.F64(c.Drive)
	w.U8(uint8(c.Vt))
	w.F64(c.Area)
	w.F64(float64(c.Leakage))
	w.F64(float64(c.MaxTran))
	w.U32(uint32(len(c.Pins)))
	for _, p := range c.Pins {
		w.String(p.Name)
		w.Bool(p.Input)
		w.F64(float64(p.Cap))
		w.Bool(p.IsClock)
		w.F64(float64(p.MaxCap))
	}
	w.U32(uint32(len(c.Arcs)))
	for i := range c.Arcs {
		encodeArc(w, &c.Arcs[i])
	}
	w.Bool(c.FF != nil)
	if c.FF != nil {
		w.String(c.FF.Clock)
		w.String(c.FF.Data)
		w.String(c.FF.Q)
		for _, t := range []*liberty.Table2D{
			c.FF.SetupRise, c.FF.SetupFall, c.FF.HoldRise, c.FF.HoldFall,
			c.FF.C2QRise, c.FF.C2QFall,
		} {
			encodeTable(w, t)
		}
	}
	w.Bool(c.Gate != nil)
	if c.Gate != nil {
		w.String(c.Gate.Clock)
		w.String(c.Gate.Enable)
		w.String(c.Gate.Out)
		encodeTable(w, c.Gate.SetupRise)
		encodeTable(w, c.Gate.HoldRise)
	}
}

func decodeCell(r *wire.Reader) (*liberty.Cell, error) {
	c := &liberty.Cell{Name: r.String(), Function: r.String(), Drive: r.F64()}
	vt := r.U8()
	if r.Err() == nil && vt > uint8(liberty.HVT) {
		return nil, fmt.Errorf("pack: cell %q has unknown Vt class %d", c.Name, vt)
	}
	c.Vt = liberty.VtClass(vt)
	c.Area = r.F64()
	c.Leakage = units.NW(r.F64())
	c.MaxTran = units.Ps(r.F64())
	nPins := r.Count(15)
	if r.Err() != nil {
		return nil, r.Err()
	}
	c.Pins = make([]liberty.PinSpec, 0, nPins)
	for i := 0; i < nPins; i++ {
		p := liberty.PinSpec{Name: r.String(), Input: r.Bool()}
		p.Cap = units.FF(r.F64())
		p.IsClock = r.Bool()
		p.MaxCap = units.FF(r.F64())
		c.Pins = append(c.Pins, p)
	}
	nArcs := r.Count(12)
	if r.Err() != nil {
		return nil, r.Err()
	}
	c.Arcs = make([]liberty.TimingArc, 0, nArcs)
	for i := 0; i < nArcs; i++ {
		a, err := decodeArc(r)
		if err != nil {
			return nil, err
		}
		c.Arcs = append(c.Arcs, a)
	}
	if r.Bool() {
		ff := &liberty.FFSpec{Clock: r.String(), Data: r.String(), Q: r.String()}
		for _, dst := range []**liberty.Table2D{
			&ff.SetupRise, &ff.SetupFall, &ff.HoldRise, &ff.HoldFall,
			&ff.C2QRise, &ff.C2QFall,
		} {
			t, err := decodeTable(r)
			if err != nil {
				return nil, err
			}
			*dst = t
		}
		c.FF = ff
	}
	if r.Bool() {
		g := &liberty.GatingSpec{Clock: r.String(), Enable: r.String(), Out: r.String()}
		var err error
		if g.SetupRise, err = decodeTable(r); err != nil {
			return nil, err
		}
		if g.HoldRise, err = decodeTable(r); err != nil {
			return nil, err
		}
		c.Gate = g
	}
	return c, r.Err()
}

// arcTables enumerates a TimingArc's table slots in their fixed wire order.
func arcTables(a *liberty.TimingArc) []**liberty.Table2D {
	return []**liberty.Table2D{
		&a.DelayRise, &a.DelayFall, &a.SlewRise, &a.SlewFall,
		&a.SigmaRise, &a.SigmaFall,
		&a.SigmaEarlyRise, &a.SigmaEarlyFall,
		&a.SigmaLateRise, &a.SigmaLateFall,
	}
}

func encodeArc(w *wire.Writer, a *liberty.TimingArc) {
	w.String(a.From)
	w.String(a.To)
	w.U8(uint8(a.Sense))
	for _, t := range arcTables(a) {
		encodeTable(w, *t)
	}
	w.F64(a.MISFactorFast)
	w.F64(a.MISFactorSlow)
}

func decodeArc(r *wire.Reader) (liberty.TimingArc, error) {
	var a liberty.TimingArc
	a.From = r.String()
	a.To = r.String()
	sense := r.U8()
	if r.Err() == nil && sense > uint8(liberty.NonUnate) {
		return a, fmt.Errorf("pack: arc %s->%s has unknown sense %d", a.From, a.To, sense)
	}
	a.Sense = liberty.ArcSense(sense)
	for _, dst := range arcTables(&a) {
		t, err := decodeTable(r)
		if err != nil {
			return a, err
		}
		*dst = t
	}
	a.MISFactorFast = r.F64()
	a.MISFactorSlow = r.F64()
	return a, r.Err()
}

// encodeTable writes an optional Table2D: a presence flag, the two axes,
// then the values row-major as one flat slab.
func encodeTable(w *wire.Writer, t *liberty.Table2D) {
	w.Bool(t != nil)
	if t == nil {
		return
	}
	w.F64Slab(t.RowAxis)
	w.F64Slab(t.ColAxis)
	w.U32(uint32(len(t.RowAxis) * len(t.ColAxis)))
	for _, row := range t.Values {
		for _, v := range row {
			w.F64(v)
		}
	}
}

func decodeTable(r *wire.Reader) (*liberty.Table2D, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	t := &liberty.Table2D{RowAxis: r.F64Slab(), ColAxis: r.F64Slab()}
	flat := r.F64Slab()
	if err := r.Err(); err != nil {
		return nil, err
	}
	rows, cols := len(t.RowAxis), len(t.ColAxis)
	if len(flat) != rows*cols {
		return nil, fmt.Errorf("pack: table %dx%d with %d values", rows, cols, len(flat))
	}
	t.Values = make([][]float64, rows)
	for i := 0; i < rows; i++ {
		t.Values[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	// A pack table passes the same check as a parsed one: Lookup indexes
	// the axes unconditionally and trusts their order.
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	return t, nil
}
