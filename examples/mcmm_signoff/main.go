// mcmm_signoff: the corner super-explosion in practice. Enumerates the full
// scenario space for a wide-voltage-range 16nm-class SOC, prunes it with
// the dominance rule, and closes timing on a block under the production
// MCMM set.
package main

import (
	"fmt"
	"log"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/mcmm"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
)

func main() {
	stack := parasitics.Stack16()

	// The full space a central engineering team stares down.
	sp := mcmm.Space{
		Modes: mcmm.DefaultModes(),
		PVTs: mcmm.VoltageTempGrid(
			[]float64{0.50, 0.60, 0.72, 0.80, 0.90, 1.00},
			[]float64{-30, 25, 125}),
		BEOLs:           append([]parasitics.CornerKind{parasitics.Typical}, parasitics.AllCorners...),
		MaskShiftCombos: 8, // three double-patterned layers
	}
	fmt.Printf("full scenario space: %d views\n", sp.Count())

	// Modes that differ only in clock period are ordered by it: within one
	// PVT/BEOL/mask-shift class, the fastest-clocked mode bounds every
	// other setup check and one mode covers every hold check.
	p := sp.Prune()
	perMode := map[string]int{}
	for i, sc := range p.Scenarios {
		if p.Kept(i) {
			perMode[sc.Mode.Name]++
		}
	}
	fmt.Println("dominance pruning keeps, per mode:")
	for _, m := range sp.Modes {
		fmt.Printf("  %-16s %5d\n", m.Name, perMode[m.Name])
	}
	for j, d := range p.SetupDominator {
		if d >= 0 {
			fmt.Printf("e.g. %s bounds the setup check of %s\n\n",
				p.Scenarios[d].Name(), p.Scenarios[j].Name())
			break
		}
	}

	// Close timing under the production MCMM recipe.
	libs := core.GenerateNewLibs(liberty.Node16)
	d := circuits.Block(libs.SlowCold, circuits.BlockSpec{
		Name: "mcmm_blk", Inputs: 12, Outputs: 12, FFs: 48, Gates: 600,
		Seed: 77, ClockBufferLevels: 2,
	})
	recipe := core.NewGoalPosts(libs, stack)
	recipe.UsePBA = false // keep the demo fast
	e := &core.Engine{
		D: d, Recipe: recipe, BasePeriod: 700, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(stack, 77),
	}
	res, err := e.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.String())
}
