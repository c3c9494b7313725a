package parasitics

import (
	"math"
	"math/rand"
	"testing"
)

// The reference the kernel must match bit for bit: attach the sink caps as
// real trailing nodes of a copied tree, then compute moments with one child
// list per node. This is the arithmetic delay calculation used before the
// kernel existed, kept here as the oracle.

func refWithSinkCaps(t *Tree, caps []float64) *Tree {
	cp := &Tree{
		Parent: append([]int32(nil), t.Parent...),
		R:      append([]float64(nil), t.R...),
		C:      append([]float64(nil), t.C...),
		Cc:     append([]float64(nil), t.Cc...),
		Layer:  append([]int8(nil), t.Layer...),
		Sinks:  append([]int32(nil), t.Sinks...),
	}
	for i, sink := range cp.Sinks {
		if i < len(caps) && caps[i] > 0 {
			cp.AddNode(int(sink), 0, caps[i], 0, -1)
		}
	}
	return cp
}

func refMoments(t *Tree, s *Scaling, miller float64, order int) [][]float64 {
	n := t.N()
	m := make([][]float64, order+1)
	m[0] = make([]float64, n)
	for i := range m[0] {
		m[0][i] = 1
	}
	kids := make([][]int, n)
	for i := 1; i < n; i++ {
		kids[t.Parent[i]] = append(kids[t.Parent[i]], i)
	}
	down := make([]float64, n)
	for k := 1; k <= order; k++ {
		mk := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			down[i] = t.nodeCap(i, s, miller) * m[k-1][i]
			for _, ch := range kids[i] {
				down[i] += down[ch]
			}
		}
		for i := 1; i < n; i++ {
			r := t.R[i] * s.rAt(t.Layer[i])
			mk[i] = mk[t.Parent[i]] + r*down[i]
		}
		m[k] = mk
	}
	return m
}

// randomLoadedTree draws a tree with sinks on arbitrary non-root nodes —
// interior ones and repeated ones included — and sink caps of which some
// are zero.
func randomLoadedTree(rng *rand.Rand) (*Tree, []float64) {
	t := NewTree(0, 0)
	n := 1 + rng.Intn(24)
	for i := 1; i <= n; i++ {
		layer := rng.Intn(4) - 1
		t.AddNode(rng.Intn(i), rng.Float64()*3, rng.Float64()*5, rng.Float64()*2, layer)
	}
	for k := 1 + rng.Intn(6); k > 0; k-- {
		t.MarkSink(1 + rng.Intn(n))
	}
	if rng.Intn(3) == 0 {
		t.MarkSink(int(t.Sinks[0])) // two sinks on one node
	}
	caps := make([]float64, len(t.Sinks))
	for i := range caps {
		if rng.Intn(4) > 0 {
			caps[i] = rng.Float64() * 4
		}
	}
	if rng.Intn(5) == 0 {
		caps = caps[:len(caps)-1] // fewer caps than sinks
	}
	return t, caps
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestKernelMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sc Scratch // one scratch across all trees: reuse must not leak state
	for trial := 0; trial < 500; trial++ {
		tr, caps := randomLoadedTree(rng)
		var s *Scaling
		if trial%3 != 0 {
			s = &Scaling{R: make([]float64, 3), C: make([]float64, 3), Cc: make([]float64, 3)}
			for l := 0; l < 3; l++ {
				s.R[l], s.C[l], s.Cc[l] = 0.7+rng.Float64(), 0.7+rng.Float64(), 0.7+rng.Float64()
			}
		}
		millerE, millerL := 1.0, 1.0 // SI off
		if trial%2 == 0 {
			f := rng.Float64()
			millerE, millerL = 1-f, 1+f
		}
		wt := refWithSinkCaps(tr, caps)
		at := func(m []float64) []float64 {
			out := make([]float64, len(wt.Sinks))
			for i, sink := range wt.Sinks {
				out[i] = m[sink]
			}
			return out
		}
		nominal := refMoments(wt, s, 1, 2)

		got := sc.Moments(tr, caps, s, millerE, millerL)
		sameBits(t, "capE", []float64{got.CapE}, []float64{wt.TotalCapM(s, millerE)})
		sameBits(t, "capL", []float64{got.CapL}, []float64{wt.TotalCapM(s, millerL)})
		sameBits(t, "m1", got.M1, at(nominal[1]))
		sameBits(t, "m2", got.M2, at(nominal[2]))
		sameBits(t, "m1E", got.M1E, at(refMoments(wt, s, millerE, 1)[1]))
		sameBits(t, "m1L", got.M1L, at(refMoments(wt, s, millerL, 1)[1]))

		// The allocating Tree methods run the same kernel.
		sameBits(t, "ElmoreM", wt.ElmoreM(s, millerL), at(refMoments(wt, s, millerL, 1)[1]))
		d2m, slew := make([]float64, len(wt.Sinks)), make([]float64, len(wt.Sinks))
		for i, sink := range wt.Sinks {
			d2m[i] = D2M(nominal[1][sink], nominal[2][sink])
			slew[i] = WireSlew(nominal[1][sink], nominal[2][sink])
		}
		sameBits(t, "DelayD2M", wt.DelayD2M(s), d2m)
		sameBits(t, "SlewDegradation", wt.SlewDegradation(s), slew)
	}
}

func TestKernelDoesNotAllocateWhenWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, caps := randomLoadedTree(rng)
	var sc Scratch
	sc.Moments(tr, caps, nil, 0.65, 1.35)
	if n := testing.AllocsPerRun(20, func() { sc.Moments(tr, caps, nil, 0.65, 1.35) }); n != 0 {
		t.Fatalf("warm kernel allocates %v per net, want 0", n)
	}
}
