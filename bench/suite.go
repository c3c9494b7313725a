package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// childRun is one workload run in its own process, as recorded in the
// suite and A/A result files.
type childRun struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Traced   bool       `json:"traced"`
	Result   wireResult `json:"result"`
}

// child re-executes this binary for one workload, so that every run starts
// from a fresh heap and an honest peak_rss_mb. The child's table goes
// straight to our standard error; its last line of standard output is the
// result.
func child(o runOpts) (childRun, error) {
	run := childRun{Workload: o.workload, Seed: o.seed, Traced: o.traced}
	cmd, err := selfCmd(
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		fmt.Sprintf("-trace=%v", o.traced), "-scale", o.sc.name, "-out", outDir, "-client-view")
	if err != nil {
		return run, err
	}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return run, fmt.Errorf("%s seed %d: %w", o.workload, o.seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
		return run, fmt.Errorf("%s seed %d: bad result line: %w", o.workload, o.seed, err)
	}
	if !run.Result.Correct {
		return run, fmt.Errorf("%s seed %d: %d of %d checks failed", o.workload, o.seed, run.Result.Failed, run.Result.Attempted)
	}
	return run, nil
}

func writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, name)
	fmt.Fprintln(os.Stderr, "wrote", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSuite runs every workload once and prints one table: a row per
// metric, a column per workload.
func runSuite(o runOpts) error {
	var runs []childRun
	for _, w := range workloads {
		o.workload = w.name
		run, err := child(o)
		if err != nil {
			return err
		}
		runs = append(runs, run)
	}
	defs := untracedView
	name := "suite.json"
	if o.traced {
		defs, name = perLayer, "suite-trace.json"
	}
	fmt.Printf("%-34s %-6s", "metric", "unit")
	for _, r := range runs {
		fmt.Printf(" %16s", r.Workload)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-34s %-6s", d.Name, d.Unit)
		for _, r := range runs {
			fmt.Printf(" %16.4f", r.Result.Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	for _, r := range runs {
		fmt.Printf("%s: attempted %d, failed %d\n", r.Workload, r.Result.Attempted, r.Result.Failed)
	}
	return writeJSON(name, runs)
}

// aaRow is one (workload, metric) of an A/A set: the quartiles of its
// values over the set's runs, and their relative spread (Q3-Q1)/median —
// the number a regression bound has to stay clear of.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Gated    bool    `json:"gated"` // an end-to-end metric, held to a bound in BENCHMARK.json
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"`
}

type aaSet struct {
	Set     int        `json:"set"`
	Seconds float64    `json:"seconds"`
	Runs    []childRun `json:"runs"`
	Summary []aaRow    `json:"summary"`
}

// aaRuns is how many runs of each workload make one A/A set, as in the
// acceptance rule the bounds are held to.
const aaRuns = 10

// runAA measures the benchmark against itself: sets × aaRuns runs per
// workload, same code throughout, a different seed per run. It prints each metric's
// spread within a set and, from the second set on, how far its median
// moved from the first set's. BENCHMARK.json's bounds come from this output.
func runAA(o runOpts, sets int) error {
	first := map[[2]string]float64{} // set 1's medians
	for s := 1; s <= sets; s++ {
		set := aaSet{Set: s, Seconds: o.seconds}
		for _, w := range workloads {
			values := map[string][]float64{}
			for r := 0; r < aaRuns; r++ {
				ro := o
				ro.workload, ro.seed = w.name, o.seed+int64(r)
				run, err := child(ro)
				if err != nil {
					return err
				}
				set.Runs = append(set.Runs, run)
				for name, m := range run.Result.Metrics {
					values[name] = append(values[name], m.Value)
				}
			}
			for i, d := range untracedView {
				if len(values[d.Name]) < aaRuns {
					continue // not one of this workload's
				}
				// An all-zero row (failed_share, one hopes) has no spread.
				if q1, q2, q3 := quartiles(values[d.Name]); q2 != 0 {
					set.Summary = append(set.Summary, aaRow{w.name, d.Name, d.Unit, i < len(endToEnd), aaRuns, q1, q2, q3, (q3 - q1) / q2})
				}
			}
		}
		fmt.Printf("A/A set %d: %d runs per workload, %.0f s each\n", s, aaRuns, o.seconds)
		fmt.Printf("%-18s %-18s %-5s %-5s %12s %12s %12s %8s %8s\n", "workload", "metric", "unit", "gated", "q1", "median", "q3", "spread", "shift")
		for _, row := range set.Summary {
			shift := "-"
			if m, ok := first[[2]string{row.Workload, row.Metric}]; ok {
				shift = fmt.Sprintf("%+.1f%%", (row.Median/m-1)*100)
			}
			gated := "no"
			if row.Gated {
				gated = "yes"
			}
			fmt.Printf("%-18s %-18s %-5s %-5s %12.4f %12.4f %12.4f %7.1f%% %8s\n",
				row.Workload, row.Metric, row.Unit, gated, row.Q1, row.Median, row.Q3, row.Spread*100, shift)
		}
		if s == 1 {
			for _, row := range set.Summary {
				first[[2]string{row.Workload, row.Metric}] = row.Median
			}
		}
		if err := writeJSON(fmt.Sprintf("aa-set%d.json", s), set); err != nil {
			return err
		}
	}
	return nil
}
