package parasitics

// Scratch is the reusable work area of the RC-moment kernel: the child index
// of the bound tree, per-node work arrays and the result slices. Once grown
// to the largest tree it has seen, a Scratch serves every further net
// without allocating. It is not safe for concurrent use; parallel delay
// calculation gives each worker its own.
type Scratch struct {
	t    *Tree
	s    *Scaling
	caps []float64

	// Child index of the bound tree as sibling lists, children in index
	// order: head[i] is node i's first child, next[ch] the sibling after ch,
	// -1 ends a list. vhead/vnext index the sink caps the same way, per node
	// and per sink, in sink order.
	head, next   []int32
	vhead, vnext []int32

	// Per node: effective cap under the current pass's Miller factor, the
	// downstream weighted cap, and the first two moments.
	ncap, down, m1, m2 []float64

	res Moments
}

// Moments is the delay-calculation view of one loaded net: what the driver
// sees and what every sink sees, under the early and late Miller factors of
// SI analysis and under the nominal factor 1 the two-moment metrics use.
// Per-sink slices are in sink order.
type Moments struct {
	CapE, CapL float64   // total cap at millerE / millerL, sink caps included
	M1E, M1L   []float64 // Elmore delay at millerE / millerL
	M1, M2     []float64 // first and second moment at Miller factor 1
}

// Moments runs the kernel for tree t loaded with caps (receiver pin caps in
// sink order; missing and non-positive entries add nothing) under scaling
// s. The result is owned by the Scratch and valid until its next use.
//
// A sink cap is a virtual child of its sink node behind a zero-resistance,
// unscaled segment: it loads everything upstream and sees its parent's
// moments. Virtual children are summed after a node's real children, in
// sink order — the order a tree with the caps appended as trailing nodes
// would be summed in — so the result matches that construction bit for bit
// without building it.
func (sc *Scratch) Moments(t *Tree, caps []float64, s *Scaling, millerE, millerL float64) *Moments {
	sc.bind(t, caps, s)
	r := &sc.res
	nominal := sc.pass(MillerFactor, 2)
	r.M1 = sc.atSinks(r.M1, sc.m1)
	r.M2 = sc.atSinks(r.M2, sc.m2)
	r.CapE, r.M1E = sc.elmore(millerE, nominal, r.M1E)
	r.CapL, r.M1L = sc.elmore(millerL, nominal, r.M1L)
	return r
}

// elmore returns the total cap and the per-sink Elmore delays at the given
// Miller factor, in dst's storage. Factor 1 is served by the nominal pass
// already gathered into res.M1.
func (sc *Scratch) elmore(miller, nominalCap float64, dst []float64) (float64, []float64) {
	if miller == MillerFactor {
		return nominalCap, append(dst[:0], sc.res.M1...)
	}
	totalCap := sc.pass(miller, 1)
	return totalCap, sc.atSinks(dst, sc.m1)
}

// bind points the scratch at (t, caps, s) and builds the child index.
// Parents precede children by construction (AddNode requires an existing
// parent), so pushing nodes in descending order onto their parent's list
// leaves every list in ascending index order.
func (sc *Scratch) bind(t *Tree, caps []float64, s *Scaling) {
	sc.t, sc.s, sc.caps = t, s, caps
	n := t.N()
	if cap(sc.head) < n {
		sc.head, sc.next, sc.vhead = make([]int32, n), make([]int32, n), make([]int32, n)
		sc.ncap, sc.down = make([]float64, n), make([]float64, n)
		sc.m1, sc.m2 = make([]float64, n), make([]float64, n)
	}
	sc.head, sc.next, sc.vhead = sc.head[:n], sc.next[:n], sc.vhead[:n]
	sc.ncap, sc.down, sc.m1, sc.m2 = sc.ncap[:n], sc.down[:n], sc.m1[:n], sc.m2[:n]
	if cap(sc.vnext) < len(t.Sinks) {
		sc.vnext = make([]int32, len(t.Sinks))
	}
	sc.vnext = sc.vnext[:len(t.Sinks)]
	for i := range sc.head {
		sc.head[i], sc.vhead[i] = -1, -1
	}
	for i := n - 1; i >= 1; i-- {
		p := t.Parent[i]
		sc.next[i] = sc.head[p]
		sc.head[p] = int32(i)
	}
	for j := len(t.Sinks) - 1; j >= 0; j-- {
		if j < len(caps) && caps[j] > 0 {
			p := t.Sinks[j]
			sc.vnext[j] = sc.vhead[p]
			sc.vhead[p] = int32(j)
		}
	}
}

// pass computes the moments m1..m_order (order 1 or 2) at every node of the
// bound tree with coupling grounded at the given Miller factor, and returns
// the total capacitance under that factor.
func (sc *Scratch) pass(miller float64, order int) (totalCap float64) {
	for i := range sc.ncap {
		sc.ncap[i] = sc.t.nodeCap(i, sc.s, miller)
		totalCap += sc.ncap[i]
	}
	for j := range sc.t.Sinks {
		if j < len(sc.caps) && sc.caps[j] > 0 {
			totalCap += sc.caps[j]
		}
	}
	sc.moment(nil, sc.m1)
	if order >= 2 {
		sc.moment(sc.m1, sc.m2)
	}
	return totalCap
}

// moment computes moment k at every node into m from moment k−1 in prev
// (nil for m0, which is 1 everywhere) by the classic iterative scheme: an
// Elmore computation with node caps C_i·m_{k−1}(i). A sink cap sits behind
// zero resistance, so its previous moment is its node's.
func (sc *Scratch) moment(prev, m []float64) {
	t := sc.t
	// Downstream weighted cap: own cap, then the subtrees of the real
	// children, then the sink caps hanging here.
	for i := len(m) - 1; i >= 0; i-- {
		w := 1.0
		if prev != nil {
			w = prev[i]
		}
		d := sc.ncap[i] * w
		for ch := sc.head[i]; ch >= 0; ch = sc.next[ch] {
			d += sc.down[ch]
		}
		for j := sc.vhead[i]; j >= 0; j = sc.vnext[j] {
			d += sc.caps[j] * w
		}
		sc.down[i] = d
	}
	// Parent's moment plus segment resistance times everything below it.
	m[0] = 0
	for i := 1; i < len(m); i++ {
		r := t.R[i] * sc.s.rAt(t.Layer[i])
		m[i] = m[t.Parent[i]] + r*sc.down[i]
	}
}

// atSinks gathers the per-node values m at the bound tree's sinks into
// dst's storage.
func (sc *Scratch) atSinks(dst, m []float64) []float64 {
	dst = dst[:0]
	for _, sink := range sc.t.Sinks {
		dst = append(dst, m[sink])
	}
	return dst
}
