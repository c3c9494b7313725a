package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/qor.golden")

// smoke runs the closure loop on a small block; errNotClosed still counts
// as a successful run of the machinery.
func smoke(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	base := []string{"-recipe", "old", "-gates", "140", "-ffs", "12", "-seed", "3"}
	err := run(append(base, args...), &b)
	if err != nil && !errors.Is(err, errNotClosed) {
		t.Fatalf("run %v: %v\n%s", args, err, b.String())
	}
	return b.String()
}

func TestRunSmoke(t *testing.T) {
	out := smoke(t)
	for _, want := range []string{"closure iterations", "closed=", "power:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

var wallClock = regexp.MustCompile(`closed=\w+ in [^|]+`)

// TestRunWorkersDeterministic pins the repo's core invariant at the CLI
// boundary: serial and parallel signoff print byte-identical reports
// (modulo the wall-clock line).
func TestRunWorkersDeterministic(t *testing.T) {
	a := wallClock.ReplaceAllString(smoke(t, "-workers", "1"), "T")
	b := wallClock.ReplaceAllString(smoke(t, "-workers", "3"), "T")
	if a != b {
		t.Fatalf("-workers changed the report:\n--- w1 ---\n%s\n--- w3 ---\n%s", a, b)
	}
}

func TestRunMetricsAndTraceExport(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.json")
	out := smoke(t, "-metrics", metrics, "-trace", trace)
	if !strings.Contains(out, "spans") && !strings.Contains(out, "counters") {
		t.Errorf("-metrics should print the obs summary:\n%s", out)
	}
	for _, p := range []string{metrics, trace} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("export not written: %v", err)
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Errorf("%s is not valid JSON: %v", filepath.Base(p), err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-no-such-flag"}, &b); err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("want flag parse error, got %v", err)
	}
}

// fixOrder lists the fix passes in the order the loop applies them (Figure
// 1's Vt swap → sizing → buffering → NDR → useful skew, then hold, noise and
// margin recovery).
var fixOrder = []string{"vt_swap", "resize", "drc_fix", "ndr", "useful_skew", "hold_fix", "noise_fix", "leak_recover", "area_recover"}

// TestClosureQoRGolden pins what the loop achieves on the command's default
// block under both recipes and six seeds: iterations, the final merged
// WNS and summed setup TNS, the area and leakage it spent, and how many
// changes each fix pass made. Floats are printed in full, so the golden is
// an amd64 artifact. The new-recipe rows are skipped under -short.
func TestClosureQoRGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden holds floats as amd64 rounds them; GOARCH=%s may not", runtime.GOARCH)
	}
	const path = "testdata/qor.golden"
	var got []string
	for _, recipe := range []string{"old", "new"} {
		if recipe == "new" && testing.Short() {
			continue
		}
		for _, seed := range []int64{1, 2, 3, 7, 42, 99} {
			res, err := newEngine(recipe, 560, 1400, 96, seed).Close()
			if err != nil {
				t.Fatalf("%s seed %d: %v", recipe, seed, err)
			}
			tns := 0.0
			for _, sc := range res.Final.Scenarios {
				tns += sc.SetupTNS
			}
			changed := map[string]int{}
			for _, it := range res.Iterations {
				for _, f := range it.Fixes {
					changed[f.Pass] += f.Changed
				}
			}
			row := fmt.Sprintf("%s seed=%d iterations=%d closed=%v setup_wns=%v hold_wns=%v setup_tns=%v area=%v leakage=%v |",
				recipe, seed, len(res.Iterations), res.Closed, res.Final.MergedSetupWNS, res.Final.MergedHoldWNS, tns,
				res.AreaDelta, res.LeakageDelta)
			for _, pass := range fixOrder {
				row += fmt.Sprintf(" %s=%d", pass, changed[pass])
			}
			got = append(got, row)
		}
	}
	if *update {
		if testing.Short() {
			t.Fatal("-update needs every row: run it without -short")
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run TestClosureQoRGolden -update writes it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if testing.Short() {
		want = want[:len(got)]
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("closure QoR moved:\n--- got ---\n%s\n--- %s ---\n%s", strings.Join(got, "\n"), path, strings.Join(want, "\n"))
	}
}
