package ffchar

import (
	"math"
	"testing"

	"newgame/internal/units"
)

// TestWorkerDeterminism: setup/hold searches and sweeps give bit-identical
// results for any worker count — probe positions depend only on the
// bracket, never on the schedule. Each run gets a fresh Default65 (and
// hence a fresh memo) so the parallel path is actually exercised rather
// than served from the serial run's cache.
func TestWorkerDeterminism(t *testing.T) {
	type result struct {
		setup units.Ps
		curve []Point
	}
	run := func(w int) result {
		c := Default65()
		c.Step = 0.75
		c.Workers = w
		s, err := c.SetupTime()
		if err != nil {
			t.Fatal(err)
		}
		curve, err := c.SetupVsHold([]units.Ps{60, 30, 10, 0})
		if err != nil {
			t.Fatal(err)
		}
		return result{setup: s, curve: curve}
	}
	ref := run(1)
	for _, w := range []int{4, 0} {
		got := run(w)
		if math.Float64bits(got.setup) != math.Float64bits(ref.setup) {
			t.Fatalf("SetupTime differs between workers=1 (%v) and workers=%d (%v)", ref.setup, w, got.setup)
		}
		if len(got.curve) != len(ref.curve) {
			t.Fatalf("SetupVsHold length differs: %d vs %d at workers=%d", len(ref.curve), len(got.curve), w)
		}
		for i := range got.curve {
			a, b := ref.curve[i], got.curve[i]
			if math.Float64bits(a.Setup) != math.Float64bits(b.Setup) ||
				math.Float64bits(a.Hold) != math.Float64bits(b.Hold) ||
				math.Float64bits(a.C2Q) != math.Float64bits(b.C2Q) {
				t.Fatalf("SetupVsHold point %d differs at workers=%d: %+v vs %+v", i, w, a, b)
			}
		}
	}
}
