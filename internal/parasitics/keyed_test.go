package parasitics

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds math/rand's Seed treats specially: the zero it
// remaps, the modulus and its multiples, the ends of int64, and the remap
// target itself.
var edgeSeeds = []int64{
	0, 1, -1, lehmerM, -lehmerM, 2 * lehmerM, math.MinInt64, math.MaxInt64, zeroSeed,
}

// The closed form is the source's first draw, bit for bit: its Int63 and its
// Float64, on the edge seeds, 100 000 seeds spread over int64 and 1 000
// consecutive ones around zero.
func TestKeyedDrawMatchesSource(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	for i := uint64(0); i < 100_000; i++ {
		seeds = append(seeds, int64(i*0x9E3779B97F4A7C15))
	}
	for s := int64(-500); s < 500; s++ {
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		if got, want := firstInt63(s), rand.NewSource(s).Int63(); got != want {
			t.Fatalf("seed %d: first Int63 %d, the source's %d", s, got, want)
		}
		if got, want := keyedDraw(s), rand.New(rand.NewSource(s)).Float64(); got != want {
			t.Fatalf("seed %d: keyed draw %v, the source's Float64 %v", s, got, want)
		}
	}
}

// Float64 resamples exactly when the Int63 rounds up to 2⁶³ as a float64.
func TestUnitFloatResamples(t *testing.T) {
	for _, c := range []struct {
		v  int64
		ok bool
	}{
		{0, true},
		{1 << 62, true},
		{1<<63 - 1<<9 - 1, true},
		{1<<63 - 1<<9, false},
		{math.MaxInt64, false},
	} {
		f, ok := unitFloat(c.v)
		if ok != c.ok || ok != (f < 1) || f != float64(c.v)/(1<<63) {
			t.Errorf("unitFloat(%d) = %v, %v; want ok %v", c.v, f, ok, c.ok)
		}
	}
}

func FuzzKeyedDraw(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if got, want := keyedDraw(seed), rand.New(rand.NewSource(seed)).Float64(); got != want {
			t.Fatalf("seed %d: keyed draw %v, the source's Float64 %v", seed, got, want)
		}
	})
}
