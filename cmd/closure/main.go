// Command closure runs the full timing-closure loop (paper Figure 1) on a
// generated SoC block under the old- or new-goal-post signoff recipe and
// prints the per-iteration convergence table.
//
// Usage:
//
//	closure -recipe new -period 600 -gates 1400
//	closure -recipe new -trace trace.json -metrics metrics.json
//	closure -recipe old -pprof localhost:6060
//
// -metrics writes a JSON metrics dump (counters, gauges, histograms, span
// rollups); -trace writes Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, where the scenario-parallel signoff renders as
// overlapping worker lanes; -pprof serves net/http/pprof for live CPU and
// heap profiling. Either of -metrics/-trace also prints the obs summary
// tables after the run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/obs"
	"newgame/internal/parasitics"
	"newgame/internal/power"
	"newgame/internal/report"
	"newgame/internal/sta"
	"newgame/internal/variation"
)

// errNotClosed distinguishes "the loop ran but did not converge" (exit 2,
// like a failing signoff) from operational errors (exit 1).
var errNotClosed = errors.New("closure: loop did not converge")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errNotClosed):
		os.Exit(2)
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "closure:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it parses args with its own
// FlagSet and writes everything to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("closure", flag.ContinueOnError)
	recipeName := fs.String("recipe", "old", "signoff recipe: old, new")
	period := fs.Float64("period", 560, "functional clock period, ps")
	gates := fs.Int("gates", 1400, "combinational gate count")
	ffs := fs.Int("ffs", 96, "flip-flop count")
	seed := fs.Int64("seed", 42, "generation seed")
	workers := fs.Int("workers", 0, "concurrent signoff workers (0 = all CPUs, 1 = serial)")
	metricsPath := fs.String("metrics", "", "write a JSON metrics dump to this file after the run")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "closure: pprof:", err)
			}
		}()
	}
	var rec *obs.Recorder
	if *metricsPath != "" || *tracePath != "" {
		rec = obs.NewRecorder()
	}

	e := newEngine(*recipeName, *period, *gates, *ffs, *seed)
	e.Workers, e.Obs = *workers, rec
	recipe, d, lib := e.Recipe, e.D, e.Recipe.Scenarios[0].Lib
	cons := sta.NewConstraints()
	cons.AddClock("clk", *period, d.Port("clk"))
	powerOf := func() (power.Report, error) {
		sp := rec.Start("power", nil)
		defer sp.End()
		// The engine's parasitics table: the power analyzer sees its RC
		// trees, and the generation work happens once.
		a, err := sta.New(d, cons, sta.Config{Lib: lib, Parasitics: e.Parasitics, Obs: rec})
		if err != nil {
			return power.Report{}, err
		}
		if err := a.Run(); err != nil {
			return power.Report{}, err
		}
		return power.Compute(a, lib, power.DefaultConfig()), nil
	}
	pBefore, err := powerOf()
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := e.Close()
	if err != nil {
		return err
	}
	pAfter, err := powerOf()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "recipe %s on %s (%d cells), period %.0f ps\n\n",
		recipe.Name, d.Name, len(d.Cells), *period)
	tb := report.NewTable("closure iterations",
		"iter", "setup WNS", "hold WNS", "setup viol", "hold viol", "drc", "noise", "fixes")
	for _, it := range res.Iterations {
		var fixes []string
		for _, f := range it.Fixes {
			if f.Changed > 0 {
				fixes = append(fixes, fmt.Sprintf("%s:%d", f.Pass, f.Changed))
			}
		}
		tb.Row(it.Index, it.MergedSetupWNS, it.MergedHoldWNS,
			it.Breakdown.SetupEndpoints, it.Breakdown.HoldEndpoints,
			it.Breakdown.MaxTran+it.Breakdown.MaxCap, it.Breakdown.Noise,
			strings.Join(fixes, " "))
	}
	tb.Render(out)
	fmt.Fprintf(out, "\nclosed=%v in %s | leakage cost %.0f nW, area cost %.1f um2\n",
		res.Closed, time.Since(t0).Round(time.Millisecond), res.LeakageDelta, res.AreaDelta)
	fmt.Fprintf(out, "power: %.1f -> %.1f uW total (leak %.1f -> %.1f uW, clock share %.0f%%)\n",
		pBefore.Total/1000, pAfter.Total/1000, pBefore.Leakage/1000, pAfter.Leakage/1000,
		100*pAfter.ClockFrac)
	if err := rec.Export(out, *metricsPath, *tracePath); err != nil {
		return err
	}
	if !res.Closed {
		return errNotClosed
	}
	return nil
}

// newLibs are the new goal posts' corner libraries with LVF characterized,
// built at most once per process.
var newLibs = sync.OnceValue(func() core.NewLibs {
	libs := core.GenerateNewLibs(liberty.Node16)
	for _, l := range []*liberty.Library{libs.SlowHot, libs.SlowCold, libs.FastCold} {
		variation.CharacterizeLVF(l, 0.02, 2000, 5)
	}
	return libs
})

// newEngine is the closure engine run drives: the named recipe ("new", or
// the old goal posts) over a generated SoC block, with parasitics
// synthesized from the block's seed.
func newEngine(recipeName string, period float64, gates, ffs int, seed int64) *core.Engine {
	stack := parasitics.Stack16()
	var recipe core.Recipe
	if recipeName == "new" {
		recipe = core.NewGoalPosts(newLibs(), stack)
	} else {
		recipe = core.OldGoalPosts(liberty.Node16, stack)
	}
	d := circuits.Block(recipe.Scenarios[0].Lib, circuits.BlockSpec{
		Name: "soc", Inputs: 24, Outputs: 24, FFs: ffs, Gates: gates,
		MaxDepth: 13, Seed: seed, ClockBufferLevels: 3,
		VtMix: [3]float64{0, 0.4, 0.6},
	})
	return &core.Engine{
		D: d, Recipe: recipe, BasePeriod: period, ClockPort: d.Port("clk"),
		Parasitics: sta.NewNetBinder(stack, seed),
	}
}
