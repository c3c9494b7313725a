package conformance

import (
	"fmt"

	"newgame/internal/core"
	"newgame/internal/pack"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// checkPackRoundTrip is the persistence law: serializing the complete
// resident state — design, library, parasitic trees — through the binary
// pack and rebuilding an analyzer from nothing but the decoded bytes must
// reproduce the live analyzer's observable timing state bit-for-bit. This
// is what makes timingd's -restore trustworthy: a warm-started server is
// indistinguishable from the one that saved the pack.
func checkPackRoundTrip(cx *Ctx) error {
	period := units.Ps(cx.Spec.Period)
	cfg := cx.fullCfg(0)
	a1, err := analyze(cx.Design, cx.Cons, cfg)
	if err != nil {
		return err
	}

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
		Parasitics: cfg.Parasitics,
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
	// library, saved trees. Constraints are rebuilt and the graph levelized
	// the same way any boot would.
	cons2 := cx.constraintsFor(dec.Design, period)
	cfg.Lib, cfg.Parasitics = dec.Recipe.Scenarios[0].Lib, dec.Parasitics
	a2, err := analyze(dec.Design, cons2, cfg)
	if err != nil {
		return fmt.Errorf("rebuild from decoded pack: %w", err)
	}
	return sameState("restored analyzer across the pack round-trip", a2, a1)
}
