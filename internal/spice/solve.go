package spice

import (
	"fmt"
	"math"
)

// TranOpts configures a transient run.
type TranOpts struct {
	// Stop is the end time, ps.
	Stop float64
	// Step is the fixed integration step, ps (default 0.25).
	Step float64
	// MaxNewton bounds Newton iterations per step (default 60).
	MaxNewton int
	// Tol is the Newton convergence tolerance on node voltages, V
	// (default 1e-6).
	Tol float64
}

func (o *TranOpts) fill() {
	if o.Step <= 0 {
		o.Step = 0.25
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 60
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
}

// Result holds sampled node waveforms from a transient run.
type Result struct {
	Times []float64
	// v[t][node]
	v     [][]float64
	nodes map[string]int
}

// At returns the voltage of a node at time t (linear interpolation).
func (r *Result) At(node string, t float64) float64 {
	idx, ok := r.nodes[node]
	if !ok {
		return 0
	}
	n := len(r.Times)
	if n == 0 {
		return 0
	}
	if t <= r.Times[0] {
		return r.v[0][idx]
	}
	if t >= r.Times[n-1] {
		return r.v[n-1][idx]
	}
	// Uniform grid: direct index.
	h := r.Times[1] - r.Times[0]
	i := int((t - r.Times[0]) / h)
	if i >= n-1 {
		i = n - 2
	}
	t0 := r.Times[i]
	frac := (t - t0) / h
	return r.v[i][idx] + (r.v[i+1][idx]-r.v[i][idx])*frac
}

// Cross returns the first time after 'after' at which the node crosses
// level in the given direction, or NaN if it never does.
func (r *Result) Cross(node string, level float64, rising bool, after float64) float64 {
	idx, ok := r.nodes[node]
	if !ok {
		return math.NaN()
	}
	// Jump straight to the first sample at or past 'after' using the
	// uniform grid (the same trick At uses), instead of scanning from the
	// start. The grid was built by repeated addition, so nudge the estimate
	// to land exactly where the linear scan would have.
	start := 1
	if n := len(r.Times); n >= 2 && after > r.Times[1] {
		h := r.Times[1] - r.Times[0]
		start = int(math.Ceil((after - r.Times[0]) / h))
		if start < 1 {
			start = 1
		}
		if start > n-1 {
			start = n - 1
		}
		for start > 1 && r.Times[start-1] >= after {
			start--
		}
		for start < n-1 && r.Times[start] < after {
			start++
		}
	}
	for i := start; i < len(r.Times); i++ {
		if r.Times[i] < after {
			continue
		}
		v0, v1 := r.v[i-1][idx], r.v[i][idx]
		var hit bool
		if rising {
			hit = v0 < level && v1 >= level
		} else {
			hit = v0 > level && v1 <= level
		}
		if hit {
			// Interpolate crossing time.
			t0, t1 := r.Times[i-1], r.Times[i]
			return t0 + (t1-t0)*(level-v0)/(v1-v0)
		}
	}
	return math.NaN()
}

// Final returns the node voltage at the end of the run.
func (r *Result) Final(node string) float64 {
	if len(r.Times) == 0 {
		return 0
	}
	idx, ok := r.nodes[node]
	if !ok {
		return 0
	}
	return r.v[len(r.Times)-1][idx]
}

// settleStreak is how many consecutive accepted steps must change no node
// voltage by more than Tol — after every source waveform has finished —
// before Transient stops early. Early exit only shortens the sampled tail
// of an already-settled waveform: At/Final clamp to the last sample and no
// further crossings can occur, so probe results are unchanged.
const settleStreak = 3

// Transient integrates the circuit from an all-zero initial state (a
// power-up transient: hold inputs long enough to settle before measuring).
// It returns the sampled waveforms of every node.
//
// Solver scratch (the MNA matrix, LU workspace, RHS and voltage buffers)
// lives on the Circuit and is reused across calls, so repeated Transient
// runs on one Circuit do not reallocate; this also means a Circuit must not
// run Transient concurrently with itself (it never could — companion state
// already lives on the devices).
func (c *Circuit) Transient(opts TranOpts) (*Result, error) {
	opts.fill()
	nn := c.NumNodes() // includes ground
	nv := nn - 1       // voltage unknowns
	nb := len(c.vs)    // branch-current unknowns
	dim := nv + nb
	for i := range c.vs {
		c.vs[i].branch = nv + i
	}
	// Reset companion state.
	for i := range c.caps {
		c.caps[i].iPrev = 0
		c.caps[i].vPrev = 0
	}

	// Early exit is possible only when every source waveform has a known
	// last breakpoint (constant afterwards); an unrecognized Waveform
	// implementation disables it.
	lastBrk, canEarly := 0.0, true
	for i := range c.vs {
		tb, ok := lastBreakpoint(c.vs[i].wave)
		if !ok {
			canEarly = false
			break
		}
		if tb > lastBrk {
			lastBrk = tb
		}
	}

	// Index helpers: node 0 is ground (eliminated).
	// Unknown index of node n is n-1.
	steps := int(opts.Stop/opts.Step) + 1
	res := &Result{nodes: c.nodes, Times: make([]float64, 0, steps+1), v: make([][]float64, 0, steps+1)}

	c.ensureScratch(nn, dim)
	volt := c.scr.volt // current node voltages (with ground)
	prev := c.scr.prev // voltages at the previous accepted step
	x := c.scr.x       // solver unknowns
	A := c.scr.A
	b := c.scr.b

	// One flat arena for all sample rows (sliced with a full-cap bound so
	// rows can never grow into each other). Rows outlive the call as part
	// of the Result, so the arena is per-call, not part of the scratch.
	arena := make([]float64, (steps+1)*nn)
	record := func(t float64) {
		row := arena[:nn:nn]
		arena = arena[nn:]
		copy(row, volt)
		res.Times = append(res.Times, t)
		res.v = append(res.v, row)
	}
	record(0)

	h := opts.Step
	settled := 0
	for t := h; t <= opts.Stop+1e-9; t += h {
		copy(prev, volt)
		// Newton iteration for the step ending at time t.
		converged := false
		for it := 0; it < opts.MaxNewton; it++ {
			A.zero()
			for i := range b {
				b[i] = 0
			}
			c.stamp(A, b, volt, t, h)
			if err := A.solve(b, x); err != nil {
				return nil, fmt.Errorf("spice: t=%.3f: %w", t, err)
			}
			// Measure change and damp large jumps for stability.
			maxd := 0.0
			for n := 1; n < nn; n++ {
				d := x[n-1] - volt[n]
				if math.Abs(d) > maxd {
					maxd = math.Abs(d)
				}
			}
			limit := 1.0
			if maxd > 0.5 {
				limit = 0.5 / maxd
			}
			for n := 1; n < nn; n++ {
				volt[n] += (x[n-1] - volt[n]) * limit
			}
			if maxd < opts.Tol {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("spice: Newton did not converge at t=%.3f ps", t)
		}
		// Accept step: update capacitor companion state (trapezoidal).
		for i := range c.caps {
			cp := &c.caps[i]
			va := volt[cp.a]
			vb := volt[cp.b]
			vNew := va - vb
			iNew := (2*cp.c/h)*(vNew-cp.vPrev) - cp.iPrev
			cp.vPrev = vNew
			cp.iPrev = iNew
		}
		record(t)
		if canEarly && t >= lastBrk {
			stepd := 0.0
			for n := 1; n < nn; n++ {
				if d := math.Abs(volt[n] - prev[n]); d > stepd {
					stepd = d
				}
			}
			if stepd < opts.Tol {
				if settled++; settled >= settleStreak {
					break
				}
			} else {
				settled = 0
			}
		}
	}
	return res, nil
}

// scratch holds the per-Circuit solver workspace reused across Transient
// calls (and, inside one call, across every Newton iteration and timestep).
type scratch struct {
	A          *matrix
	b, x       []float64
	volt, prev []float64
}

func (c *Circuit) ensureScratch(nn, dim int) {
	s := &c.scr
	if s.A == nil || s.A.n != dim {
		s.A = newMatrix(dim)
		s.b = make([]float64, dim)
		s.x = make([]float64, dim)
	}
	if len(s.volt) != nn {
		s.volt = make([]float64, nn)
		s.prev = make([]float64, nn)
	}
	for i := range s.volt {
		s.volt[i] = 0
		s.prev[i] = 0
	}
	for i := range s.b {
		s.b[i] = 0
		s.x[i] = 0
	}
}

// stamp assembles the Newton linear system at node voltages volt, time t,
// step h. Matrix rows 0..nv-1 are KCL at nodes 1..nv; rows nv.. are voltage
// source branch equations.
func (c *Circuit) stamp(A *matrix, b []float64, volt []float64, t, h float64) {
	nv := c.NumNodes() - 1
	addG := func(n1, n2 int, g float64) {
		if n1 > 0 {
			A.add(n1-1, n1-1, g)
			if n2 > 0 {
				A.add(n1-1, n2-1, -g)
			}
		}
		if n2 > 0 {
			A.add(n2-1, n2-1, g)
			if n1 > 0 {
				A.add(n2-1, n1-1, -g)
			}
		}
	}
	addI := func(n1, n2 int, i float64) {
		// Current i flowing from n1 to n2 (out of n1).
		if n1 > 0 {
			b[n1-1] -= i
		}
		if n2 > 0 {
			b[n2-1] += i
		}
	}

	for _, r := range c.res {
		addG(r.a, r.b, r.g)
	}
	// Trapezoidal capacitor companion: i = (2C/h)(v − vPrev) − iPrev.
	for i := range c.caps {
		cp := &c.caps[i]
		g := 2 * cp.c / h
		addG(cp.a, cp.b, g)
		ieq := -g*cp.vPrev - cp.iPrev // part independent of new v
		addI(cp.a, cp.b, ieq)
	}
	// MOSFETs: Newton companion of nonlinear drain current + gmin.
	for i := range c.mos {
		m := &c.mos[i]
		vd, vg, vs := volt[m.d], volt[m.g], volt[m.s]
		id, gd, gg, gs := m.eval(vd, vg, vs)
		// Linearized: i(v) ≈ id + gd·Δvd + gg·Δvg + gs·Δvs. In terms of
		// absolute new voltages: i = (id − gd·vd − gg·vg − gs·vs) + gd·vd'
		// + ... Stamp the constant part as a current source and the
		// coefficients into the matrix rows of d and s.
		i0 := id - gd*vd - gg*vg - gs*vs
		addI(m.d, m.s, i0)
		stampRow := func(row, col int, g float64) {
			if row > 0 && col > 0 {
				A.add(row-1, col-1, g)
			}
		}
		// KCL at drain: +i; at source: −i.
		stampRow(m.d, m.d, gd)
		stampRow(m.d, m.g, gg)
		stampRow(m.d, m.s, gs)
		stampRow(m.s, m.d, -gd)
		stampRow(m.s, m.g, -gg)
		stampRow(m.s, m.s, -gs)
		addG(m.d, m.s, c.gmin)
	}
	// Voltage sources: branch current unknown j, rows nv+k.
	for k := range c.vs {
		v := &c.vs[k]
		j := v.branch
		if v.pos > 0 {
			A.add(v.pos-1, j, 1)
			A.add(j, v.pos-1, 1)
		}
		if v.neg > 0 {
			A.add(v.neg-1, j, -1)
			A.add(j, v.neg-1, -1)
		}
		b[j] = v.wave.At(t)
	}
	_ = nv
}

// matrix is an LU solver adequate for the tiny circuits here. It is stored
// dense, but solve tracks each row's occupied column range — MNA matrices of
// gate chains are near-banded — and skips the structural zeros outside it.
// Skipped work only ever touches entries that are exactly 0.0, so the
// factorization (pivot choices included) is bit-identical to the plain
// dense algorithm. The LU workspace is allocated once and reused across
// solves.
type matrix struct {
	n      int
	a      []float64
	lu     []float64 // factorization workspace
	perm   []int     // row permutation
	y      []float64 // forward-substitution intermediate
	lo, hi []int     // per original row: first/last occupied column
}

func newMatrix(n int) *matrix {
	return &matrix{
		n: n, a: make([]float64, n*n),
		lu: make([]float64, n*n), perm: make([]int, n), y: make([]float64, n),
		lo: make([]int, n), hi: make([]int, n),
	}
}

func (m *matrix) zero() {
	for i := range m.a {
		m.a[i] = 0
	}
}

func (m *matrix) add(r, c int, v float64) { m.a[r*m.n+c] += v }

// solve performs LU with partial pivoting on a copy and solves A·x = b.
// b is not modified.
func (m *matrix) solve(b, x []float64) error {
	n := m.n
	lu := m.lu
	copy(lu, m.a)
	perm := m.perm
	for i := range perm {
		perm[i] = i
	}
	// Occupied column range of each row. Zeros inside the range are fine
	// (treated as occupied); outside it, entries are exactly 0.0 and stay
	// that way until fill-in widens hi below.
	lo, hi := m.lo, m.hi
	for r := 0; r < n; r++ {
		row := lu[r*n : r*n+n]
		l, h := n, -1
		for j, v := range row {
			if v != 0 {
				if l == n {
					l = j
				}
				h = j
			}
		}
		lo[r], hi[r] = l, h
	}
	for k := 0; k < n; k++ {
		// Pivot. Rows whose range starts past column k hold an exact 0.0
		// there and can never win the strict > comparison, so skip them.
		p, best := k, math.Abs(lu[perm[k]*n+k])
		for i := k + 1; i < n; i++ {
			if lo[perm[i]] > k {
				continue
			}
			if v := math.Abs(lu[perm[i]*n+k]); v > best {
				p, best = i, v
			}
		}
		if best < 1e-14 {
			return fmt.Errorf("singular matrix at column %d", k)
		}
		perm[k], perm[p] = perm[p], perm[k]
		pr := perm[k]
		pk := pr * n
		piv := lu[pk+k]
		ph := hi[pr]
		for i := k + 1; i < n; i++ {
			ri := perm[i]
			if lo[ri] > k {
				continue // multiplier is exactly 0: nothing to eliminate
			}
			pi := ri * n
			f := lu[pi+k] / piv
			lu[pi+k] = f
			if f == 0 {
				continue
			}
			// Elimination touches only the pivot row's occupied columns;
			// beyond ph the pivot row is exactly 0.0 and x -= f*0 is a
			// no-op. Fill-in can widen this row's range up to ph.
			for j := k + 1; j <= ph; j++ {
				lu[pi+j] -= f * lu[pk+j]
			}
			if ph > hi[ri] {
				hi[ri] = ph
			}
		}
	}
	// Forward substitution. Multipliers left of a row's original lo were
	// never written (their rows were skipped above), so start there.
	y := m.y
	for i := 0; i < n; i++ {
		ri := perm[i]
		pi := ri * n
		s := b[ri]
		for j := lo[ri]; j < i; j++ {
			s -= lu[pi+j] * y[j]
		}
		y[i] = s
	}
	// Back substitution: U entries right of hi are exact zeros.
	for i := n - 1; i >= 0; i-- {
		ri := perm[i]
		pi := ri * n
		s := y[i]
		for j := i + 1; j <= hi[ri]; j++ {
			s -= lu[pi+j] * x[j]
		}
		x[i] = s / lu[pi+i]
	}
	return nil
}
