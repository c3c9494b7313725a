package conformance

import (
	"fmt"

	"newgame/internal/core"
	"newgame/internal/pack"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// checkPackRoundTrip is the persistence law: serializing the complete
// resident state — design, library, parasitic trees, frozen topology —
// through the binary pack and rebuilding an analyzer from nothing but the
// decoded bytes must reproduce the live analyzer's observable timing
// state bit-for-bit. This is what makes timingd's -restore trustworthy:
// a warm-started server is indistinguishable from the one that saved the
// pack.
func checkPackRoundTrip(cx *Ctx) error {
	period := units.Ps(cx.Spec.Period)
	binder := sta.NewNetBinder(cx.Stack, cx.Spec.Seed)
	a1, err := sta.New(cx.Design, cx.Cons, sta.Config{
		Lib: cx.Lib, Parasitics: binder,
		SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), MIS: true,
	})
	if err != nil {
		return err
	}
	if err := a1.Run(); err != nil {
		return err
	}
	want := Fingerprint(a1)

	snap := &pack.Snapshot{
		Design: cx.Design,
		Recipe: &core.Recipe{
			Name: "conformance",
			Scenarios: []core.Scenario{{
				Name: "full", Lib: cx.Lib, PeriodScale: 1,
				SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), MIS: true,
				ForSetup: true, ForHold: true,
			}},
		},
		Stack:      cx.Stack,
		ClockPort:  "clk",
		BasePeriod: period,
		Seed:       cx.Spec.Seed,
		Topology:   a1.Topology(),
		Parasitics: binder,
	}
	data, err := pack.Encode(snap)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	dec, err := pack.Decode(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}

	// The rebuild uses only decoded state: decoded design, decoded
	// library, saved trees, adopted topology. Constraints are rebuilt the
	// same way any boot would rebuild them.
	cons2 := cx.constraintsFor(dec.Design, period)
	a2, err := sta.New(dec.Design, cons2, sta.Config{
		Lib:        dec.Recipe.Scenarios[0].Lib,
		Parasitics: dec.Parasitics,
		SI:         sta.DefaultSI(), Derate: sta.DefaultAOCV(), MIS: true,
		Topology: dec.Topology,
	})
	if err != nil {
		return fmt.Errorf("rebuild from decoded pack: %w", err)
	}
	if a2.Topology() != dec.Topology {
		return fmt.Errorf("decoded topology not adopted: analyzer re-levelized instead")
	}
	if err := a2.Run(); err != nil {
		return err
	}
	if got := Fingerprint(a2); got != want {
		return fmt.Errorf("state fingerprint changed across pack round-trip: live %s, restored %s", want[:16], got[:16])
	}
	return nil
}
