package parasitics

import "math/rand"

// A keyed net's tree needs one uniform draw: the first Float64 of
// rand.New(rand.NewSource(seed)). Seeding that source fills a 607-word
// lagged-Fibonacci register (5 KB and 1 841 Lehmer steps), of which the
// first draw reads two words. keyedDraw computes just those two.
//
// The source's Seed normalises the seed into [1, 2³¹−2], takes 20 Lehmer
// steps x ← 48271·x mod (2³¹−1), and then fills word i from the next three
// steps (shifted by 40, 20 and 0 bits, XORed together and with
// rngCooked[i]). Word i's steps are thus 21+3i … 23+3i. The first Uint64
// steps the feed index down from 334 and the tap index down from 0, so it
// returns word 333 + word 606.
const (
	lehmerA   = 48271
	lehmerM   = 1<<31 - 1
	zeroSeed  = 89482311             // what Seed puts in place of a zero seed
	cooked333 = -4633371852008891965 // math/rand's rngCooked[333]
	cooked606 = 4152330101494654406  // math/rand's rngCooked[606]
)

// lehmerPow holds 48271ⁿ mod (2³¹−1) for the steps that make words 333
// (n = 1020…1022) and 606 (n = 1839…1841).
var lehmerPow = [6]uint64{
	powMod(lehmerA, 1020), powMod(lehmerA, 1021), powMod(lehmerA, 1022),
	powMod(lehmerA, 1839), powMod(lehmerA, 1840), powMod(lehmerA, 1841),
}

func powMod(b, n uint64) uint64 {
	r := uint64(1)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = r * b % lehmerM
		}
		b = b * b % lehmerM
	}
	return r
}

// keyedDraw returns rand.New(rand.NewSource(seed)).Float64() for every seed,
// without building the source.
func keyedDraw(seed int64) float64 {
	if f, ok := unitFloat(firstInt63(seed)); ok {
		return f
	}
	// Float64 draws again; the second draw reads words the closed form
	// does not compute, so ask the source (p ≈ 2⁻⁵⁴).
	return rand.New(rand.NewSource(seed)).Float64()
}

// firstInt63 is the first Int63 of a source seeded with seed.
func firstInt63(seed int64) int64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	return (seedWord(x, lehmerPow[:3], cooked333) + seedWord(x, lehmerPow[3:], cooked606)) & (1<<63 - 1)
}

// seedWord is the register word Seed fills from the normalised seed x0: p
// holds 48271 raised to the word's three step counts, and cooked is the
// word's rngCooked value.
func seedWord(x0 uint64, p []uint64, cooked int64) int64 {
	a, b, c := x0*p[0]%lehmerM, x0*p[1]%lehmerM, x0*p[2]%lehmerM
	return int64(a<<40^b<<20^c) ^ cooked
}

// unitFloat maps an Int63 into [0, 1) the way rand.Float64 does. ok is false
// when the quotient rounds up to 1 — v ≥ 2⁶³−2⁹ — where Float64 resamples.
func unitFloat(v int64) (f float64, ok bool) {
	f = float64(v) / (1 << 63)
	return f, f < 1
}
