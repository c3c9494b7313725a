// Command sta runs static timing analysis on a generated benchmark circuit
// and prints a signoff-style report: endpoint slacks, worst paths (GBA and
// PBA), design rule violations and noise.
//
// Usage:
//
//	sta -circuit c5315 -period 700 -corner ssg -beol rcw -derate lvf
//
// -workers is the analysis's goroutine budget (0 = all CPUs, 1 = serial;
// results are bit-identical at every setting): one analysis spends it on
// level-parallel propagation, -triage's four scenarios split it between
// scenarios and each one's propagation. -metrics and
// -trace export the run's observability data — a JSON metrics dump and
// Chrome trace-event JSON (Perfetto) respectively — matching the closure
// command's flags.
//
// -triage switches to MCMM debug mode: the circuit is analyzed under a
// four-scenario recipe (tight/loose setup and hold views), violations are
// linked across scenarios into a timing debug relation graph, and the
// clustered root-cause report is printed — with the scenario-dominance
// prune audit. -json prints the raw JSON report instead of tables. -cpuprofile and -memprofile write pprof profiles of
// the analysis (the batch-run complement of closure's live -pprof
// endpoint); the heap profile is taken after the run with one final GC so
// it shows retained analyzer state, not transient propagation garbage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"newgame/internal/circuits"
	"newgame/internal/em"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/parasitics"
	"newgame/internal/power"
	"newgame/internal/report"
	"newgame/internal/sta"
	"newgame/internal/variation"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "sta:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it parses args with its own
// FlagSet and writes everything to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sta", flag.ContinueOnError)
	circuit := fs.String("circuit", "soc", "circuit: soc, c5315, c7552, aes, mpeg2, chain")
	libFile := fs.String("lib", "", "Liberty file to analyze with (overrides -corner/-derate library generation; SI/noise need device data and are disabled)")
	period := fs.Float64("period", 700, "clock period, ps")
	corner := fs.String("corner", "ssg", "process corner: tt, ssg, ffg")
	beol := fs.String("beol", "rcw", "BEOL corner: typ, cw, cb, rcw, rcb, ccw, ccb")
	derate := fs.String("derate", "aocv", "derating: none, flat, aocv, pocv, lvf")
	si := fs.Bool("si", true, "enable SI delta-delay analysis")
	mis := fs.Bool("mis", true, "enable multi-input-switching derates")
	paths := fs.Int("paths", 5, "worst paths to report")
	triageMode := fs.Bool("triage", false, "run MCMM triage: cluster violations across scenarios by shared root cause")
	jsonOut := fs.Bool("json", false, "with -triage: print the raw JSON report instead of tables")
	workers := fs.Int("workers", 0, "analysis goroutine budget, split across -triage's scenarios (0 = all CPUs, 1 = serial)")
	metricsPath := fs.String("metrics", "", "write a JSON metrics dump to this file after the run")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var rec *obs.Recorder
	if *metricsPath != "" || *tracePath != "" {
		rec = obs.NewRecorder()
	}

	var lib *liberty.Library
	if *libFile != "" {
		f, err := os.Open(*libFile)
		if err != nil {
			return err
		}
		lib, err = liberty.ParseLib(f)
		f.Close()
		if err != nil {
			return err
		}
		*si = false // parsed libraries carry no device model for the noise engine
	} else {
		lib = buildLibrary(*corner, *derate)
	}
	d := buildCircuit(lib, *circuit)
	stack := parasitics.Stack16()

	if *triageMode {
		tc := triageConfig{
			period: *period, derate: derater(*derate), beol: beolKind(*beol),
			mis: *mis, workers: *workers, json: *jsonOut,
		}
		if *si {
			tc.si = sta.DefaultSI()
		}
		return runTriage(out, d, lib, stack, tc)
	}

	cons := sta.NewConstraints()
	cons.AddClock("clk", *period, d.Port("clk"))
	cfg := sta.Config{
		Lib:        lib,
		Parasitics: sta.NewNetBinder(stack, 1),
		Scaling:    stack.Corner(beolKind(*beol), 3),
		Derate:     derater(*derate),
		MIS:        *mis,
		Workers:    *workers,
		Obs:        rec,
	}
	if *si {
		cfg.SI = sta.DefaultSI()
	}
	a, err := sta.New(d, cons, cfg)
	if err != nil {
		return err
	}
	if err := a.Run(); err != nil {
		return err
	}

	st := d.Stats()
	fmt.Fprintf(out, "design %s: %d cells, %d nets | corner %s/%s, derate %s, period %.0f ps\n\n",
		d.Name, st.Cells, st.Nets, *corner, *beol, *derate, *period)

	tb := report.NewTable("summary", "check", "WNS (ps)", "TNS (ps)", "violating endpoints")
	for _, k := range []sta.CheckKind{sta.Setup, sta.Hold} {
		sum := a.Summary(k)
		tb.Row(k.String(), sum.Worst, sum.TNS, sum.Violations)
	}
	tb.Render(out)

	drc := a.DRCViolations()
	noise := a.NoiseViolations()
	emViols := em.Check(a, lib, stack, cfg.Parasitics, em.DefaultConfig())
	fmt.Fprintf(out, "\nDRC: %d violations, noise: %d, EM: %d\n", len(drc), len(noise), len(emViols))
	pw := power.Compute(a, lib, power.DefaultConfig())
	fmt.Fprintf(out, "power: %.1f uW (leakage %.1f, data %.1f, clock %.1f — clock share %.0f%%)\n\n",
		pw.Total/1000, pw.Leakage/1000, pw.DynamicData/1000, pw.DynamicClock/1000, 100*pw.ClockFrac)

	// Endpoint slack histogram.
	var slacks []float64
	for _, e := range a.EndpointSlacks(sta.Setup) {
		slacks = append(slacks, e.Slack)
	}
	if len(slacks) > 4 {
		idx := make([]float64, len(slacks))
		for i := range idx {
			idx[i] = float64(i)
		}
		fmt.Fprint(out, report.Series("setup endpoint slacks, worst-first", idx, slacks, 48, 8))
		fmt.Fprintln(out)
	}

	fmt.Fprintf(out, "worst %d setup paths (GBA vs PBA):\n", *paths)
	for i, p := range a.WorstPaths(sta.Setup, *paths) {
		r := a.PBA(p)
		fmt.Fprintf(out, "%2d. %-40s depth=%2d  GBA slack %8.1f  PBA slack %8.1f (recovered %.1f)\n",
			i+1, p.Endpoint.Name(), p.Depth(), p.GBASlack, r.Slack, r.Pessimism)
	}

	if err := rec.Export(out, *metricsPath, *tracePath); err != nil {
		return err
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func buildLibrary(corner, derate string) *liberty.Library {
	var pvt liberty.PVT
	switch corner {
	case "tt":
		pvt = liberty.PVT{Process: liberty.TT, Voltage: 0.80, Temp: 85}
	case "ffg":
		pvt = liberty.PVT{Process: liberty.FFG, Voltage: 0.88, Temp: -30}
	default:
		pvt = liberty.PVT{Process: liberty.SSG, Voltage: 0.72, Temp: 125}
	}
	lib := liberty.Generate(liberty.Node16, pvt, liberty.GenOptions{})
	if derate == "lvf" || derate == "pocv" {
		variation.CharacterizeLVF(lib, 0.02, 2000, 7)
	}
	return lib
}

func buildCircuit(lib *liberty.Library, name string) *netlist.Design {
	switch name {
	case "c5315":
		return circuits.C5315(lib)
	case "c7552":
		return circuits.C7552(lib)
	case "aes":
		return circuits.AES(lib)
	case "mpeg2":
		return circuits.MPEG2(lib)
	case "chain":
		return circuits.Chain(lib, circuits.ChainSpec{Stages: 20, Vt: liberty.SVT})
	default:
		return circuits.SoCBlock(lib)
	}
}

func beolKind(s string) parasitics.CornerKind {
	switch s {
	case "cw":
		return parasitics.CWorst
	case "cb":
		return parasitics.CBest
	case "rcb":
		return parasitics.RCBest
	case "ccw":
		return parasitics.CcWorst
	case "ccb":
		return parasitics.CcBest
	case "typ":
		return parasitics.Typical
	default:
		return parasitics.RCWorst
	}
}

func derater(s string) sta.Derater {
	switch s {
	case "flat":
		return sta.DefaultFlatOCV()
	case "aocv":
		return sta.DefaultAOCV()
	case "pocv":
		return sta.DefaultPOCV()
	case "lvf":
		return sta.DefaultLVF()
	default:
		return sta.NoDerate{}
	}
}
