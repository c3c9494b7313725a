// Command experiments regenerates the paper's figures and tables.
//
// Usage:
//
//	experiments -list
//	experiments -run fig4
//	experiments -run all
//	experiments -run fig2 -metrics metrics.json -trace trace.json
//
// -metrics and -trace enable observability recording across every
// experiment run (each closure engine and corner sweep attaches to the
// same recorder) and write a JSON metrics dump / Chrome trace-event file
// afterwards; -pprof serves net/http/pprof while experiments run.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"newgame/internal/experiments"
	"newgame/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	metricsPath := flag.String("metrics", "", "write a JSON metrics dump to this file after the run")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	workers := flag.Int("workers", 0, "characterization worker pool size (0 = all CPUs, 1 = serial); figure output is identical either way")
	flag.Parse()
	experiments.Workers = *workers

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
			}
		}()
	}
	var rec *obs.Recorder
	if *metricsPath != "" || *tracePath != "" {
		rec = obs.NewRecorder()
		experiments.Obs = rec
	}
	runOne := func(e experiments.Entry) experiments.Result {
		sp := rec.Start("experiment:"+e.ID, nil)
		defer sp.End()
		return e.Run()
	}
	exit := 0
	if *run == "all" {
		for _, e := range experiments.All() {
			fmt.Printf("\n######## %s: %s ########\n", e.ID, e.Title)
			r := runOne(e)
			fmt.Print(r.Text)
		}
	} else {
		e := experiments.Find(*run)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *run)
			os.Exit(1)
		}
		r := runOne(*e)
		fmt.Print(r.Text)
		if r.Title == "error" {
			exit = 1
		}
	}
	if err := rec.Export(os.Stdout, *metricsPath, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	os.Exit(exit)
}
