// Command benchdiff is the CI benchmark-regression guard: it compares a
// fresh bench snapshot (scripts/bench_snapshot.sh output) against the
// committed baseline and exits nonzero when any benchmark present in both
// files regressed — in ns/op, or in allocs/op — beyond the budget.
//
// Only shared benchmark names are compared — renamed, added or retired
// benchmarks never trip the guard, so the suite can evolve without
// ceremony; the baseline catches only genuine slowdowns of surviving
// hot paths. Baseline benchmarks missing from the current snapshot are
// reported as warnings (a disappeared benchmark is usually a rename, but
// can be a bench regex that silently stopped matching). The diff is
// printed for every shared benchmark, worst regression first, so the CI
// log doubles as a perf report even when the guard passes.
//
// Allocation counts only guard benchmarks that allocate at least
// allocsNoiseFloor objects per op in the baseline: near-zero counts flip
// whole multiples of their budget when a single allocation moves in or
// out of a fast path, which is noise at 3 allocs and a real signal at
// 300.
//
// Usage:
//
//	benchdiff -baseline BENCH_fe5308c.json -current bench-snapshot.json [-max-regress 25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// snapshot mirrors scripts/bench_snapshot.sh's output.
type snapshot struct {
	Commit     string                `json:"commit"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// allocsNoiseFloor is the minimum baseline allocs/op before allocation
// regressions count: below it a single moved allocation is a large
// percentage but not a meaningful signal.
const allocsNoiseFloor = 8

// diffLine is one shared benchmark's comparison.
type diffLine struct {
	Name     string
	BaseNs   float64
	CurNs    float64
	DeltaPct float64 // positive = slower
	// Alloc deltas, present only when both snapshots carried allocs/op.
	BaseAllocs    float64
	CurAllocs     float64
	AllocDeltaPct float64
	HasAllocs     bool
	// Regression flags the ns/op budget, AllocRegression the allocs/op
	// budget (past the noise floor); either one trips the guard.
	Regression      bool
	AllocRegression bool
}

// compare builds the shared-benchmark diff, worst regression first, and
// returns the baseline benchmarks absent from the current snapshot. A
// missing name is usually a deliberate rename or retirement, but it can
// also mean a bench regex quietly stopped matching — so it is reported,
// never silently dropped. thresholdPct is the allowed ns/op slowdown in
// percent.
func compare(base, cur snapshot, thresholdPct float64) ([]diffLine, []string) {
	var lines []diffLine
	var missing []string
	for name, b := range base.Benchmarks {
		c, ok := cur.Benchmarks[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		d := diffLine{
			Name:     name,
			BaseNs:   b.NsPerOp,
			CurNs:    c.NsPerOp,
			DeltaPct: 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp,
		}
		d.Regression = d.DeltaPct > thresholdPct
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil && *b.AllocsPerOp > 0 {
			d.HasAllocs = true
			d.BaseAllocs = *b.AllocsPerOp
			d.CurAllocs = *c.AllocsPerOp
			d.AllocDeltaPct = 100 * (d.CurAllocs - d.BaseAllocs) / d.BaseAllocs
			d.AllocRegression = d.AllocDeltaPct > thresholdPct && d.BaseAllocs >= allocsNoiseFloor
		}
		lines = append(lines, d)
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].DeltaPct != lines[j].DeltaPct {
			return lines[i].DeltaPct > lines[j].DeltaPct
		}
		return lines[i].Name < lines[j].Name
	})
	sort.Strings(missing)
	return lines, missing
}

// render writes the human-readable diff table and returns the number of
// regressions (ns/op and allocs/op combined).
func render(w *os.File, lines []diffLine, thresholdPct float64) int {
	nsRegressions, allocRegressions := 0, 0
	for _, d := range lines {
		mark := "  "
		if d.Regression {
			mark = "!!"
			nsRegressions++
		}
		allocs := ""
		if d.HasAllocs {
			am := " "
			if d.AllocRegression {
				am = "!"
				allocRegressions++
			}
			allocs = fmt.Sprintf("  |%s %8.0f -> %8.0f allocs/op  %+7.1f%%", am, d.BaseAllocs, d.CurAllocs, d.AllocDeltaPct)
		}
		fmt.Fprintf(w, "%s %-55s %12.0f -> %12.0f ns/op  %+7.1f%%%s\n",
			mark, d.Name, d.BaseNs, d.CurNs, d.DeltaPct, allocs)
	}
	if nsRegressions > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed more than %.0f%% in ns/op\n", nsRegressions, thresholdPct)
	}
	if allocRegressions > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed more than %.0f%% in allocs/op (baseline >= %d allocs)\n",
			allocRegressions, thresholdPct, allocsNoiseFloor)
	}
	return nsRegressions + allocRegressions
}

func load(path string) (snapshot, error) {
	var s snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return s, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	return s, nil
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline BENCH_<sha>.json")
	current := flag.String("current", "", "freshly measured snapshot to check")
	maxRegress := flag.Float64("max-regress", 25, "allowed ns/op and allocs/op slowdown, percent")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	lines, missing := compare(base, cur, *maxRegress)
	if len(lines) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: snapshots share no benchmarks")
		os.Exit(2)
	}
	fmt.Printf("benchdiff: %s -> %s, %d shared benchmarks, max regress %.0f%%\n",
		base.Commit, cur.Commit, len(lines), *maxRegress)
	for _, name := range missing {
		fmt.Printf("?? %-55s in baseline only — renamed, retired, or no longer matched\n", name)
	}
	if render(os.Stdout, lines, *maxRegress) > 0 {
		os.Exit(1)
	}
}
