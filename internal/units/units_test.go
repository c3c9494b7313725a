package units

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKelvin(t *testing.T) {
	if got := Kelvin(25); math.Abs(got-298.15) > 1e-9 {
		t.Errorf("Kelvin(25) = %v, want 298.15", got)
	}
	if got := Kelvin(-273.15); math.Abs(got) > 1e-9 {
		t.Errorf("Kelvin(-273.15) = %v, want 0", got)
	}
}

func TestLerp(t *testing.T) {
	cases := []struct{ a, b, t, want float64 }{
		{0, 10, 0.5, 5},
		{0, 10, 0, 0},
		{0, 10, 1, 10},
		{0, 10, 2, 20},   // extrapolation above
		{0, 10, -1, -10}, // extrapolation below
		{5, 5, 0.3, 5},
	}
	for _, c := range cases {
		if got := Lerp(c.a, c.b, c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Lerp(%v,%v,%v) = %v, want %v", c.a, c.b, c.t, got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 10); got != 5 {
		t.Errorf("Clamp inside = %v", got)
	}
	if got := Clamp(-5, 0, 10); got != 0 {
		t.Errorf("Clamp below = %v", got)
	}
	if got := Clamp(15, 0, 10); got != 10 {
		t.Errorf("Clamp above = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
}

func TestMeanVarianceStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Stddev(xs); got != 2 {
		t.Errorf("Stddev = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance(single) = %v", got)
	}
}

func TestSkewnessSign(t *testing.T) {
	// Right-skewed sample (long right tail) must report positive skewness.
	right := []float64{1, 1, 1, 1, 2, 2, 3, 10}
	if got := Skewness(right); got <= 0 {
		t.Errorf("right-tailed skewness = %v, want > 0", got)
	}
	left := []float64{-10, -3, -2, -2, -1, -1, -1, -1}
	if got := Skewness(left); got >= 0 {
		t.Errorf("left-tailed skewness = %v, want < 0", got)
	}
	sym := []float64{-2, -1, 0, 1, 2}
	if got := Skewness(sym); math.Abs(got) > 1e-12 {
		t.Errorf("symmetric skewness = %v, want 0", got)
	}
}

func TestSemiStddevAsymmetry(t *testing.T) {
	// Distribution with a heavy right tail: late sigma must exceed early.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64() * 0.5) // lognormal, right-skewed
	}
	early, late := SemiStddev(xs)
	if late <= early {
		t.Errorf("lognormal: late σ (%v) should exceed early σ (%v)", late, early)
	}
}

func TestSemiStddevSymmetric(t *testing.T) {
	xs := []float64{-3, -1, 1, 3}
	early, late := SemiStddev(xs)
	if math.Abs(early-late) > 1e-12 {
		t.Errorf("symmetric sample: early %v != late %v", early, late)
	}
}

// Property: quantile is monotone in p for any sorted input.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw)+1)
		for _, x := range raw {
			// Physical timing quantities: finite and far from the float64
			// range edge (interpolating across ±1e308 overflows the span).
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			xs = append(xs, 0)
		}
		sort.Float64s(xs)
		pa := Clamp(math.Abs(math.Mod(a, 1)), 0, 1)
		pb := Clamp(math.Abs(math.Mod(b, 1)), 0, 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Quantile(xs, pa) <= Quantile(xs, pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clamp output is always within bounds when lo <= hi.
func TestClampBoundsProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
