package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sta.golden")

// smoke analyzes the small chain circuit with cheap settings.
func smoke(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	base := []string{"-circuit", "chain", "-corner", "tt", "-derate", "none", "-si=false", "-period", "700"}
	if err := run(append(base, args...), &b); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, b.String())
	}
	return b.String()
}

func TestRunSmoke(t *testing.T) {
	out := smoke(t)
	for _, want := range []string{"design chain", "summary", "worst", "GBA slack"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunWorkersDeterministic pins bit-identical reports across -workers
// at the CLI boundary (the report has no wall-clock line to strip).
func TestRunWorkersDeterministic(t *testing.T) {
	a := smoke(t, "-workers", "1")
	b := smoke(t, "-workers", "3")
	if a != b {
		t.Fatalf("-workers changed the report:\n--- w1 ---\n%s\n--- w3 ---\n%s", a, b)
	}
}

func TestRunMetricsAndTraceExport(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.json")
	smoke(t, "-metrics", metrics, "-trace", trace)
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

// TestRunProfileExport pins the -cpuprofile/-memprofile plumbing: both
// files must come back non-empty (pprof's gzip framing means a valid
// profile is never zero bytes).
func TestRunProfileExport(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	smoke(t, "-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &b); err == nil {
		t.Fatal("want flag parse error")
	}
}

// TestOutputGolden holds the default report under each of the five derates,
// and the -triage report, to testdata/sta.golden; -update rewrites it. The
// reports print rounded numbers, but which numbers round where is an amd64
// fact, so other architectures skip.
func TestOutputGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden holds amd64 arithmetic; GOARCH=%s may round differently", runtime.GOARCH)
	}
	var got strings.Builder
	for _, args := range [][]string{
		{"-derate", "none"}, {"-derate", "flat"}, {"-derate", "aocv"}, {"-derate", "pocv"}, {"-derate", "lvf"},
		{"-triage"},
	} {
		fmt.Fprintf(&got, "######## sta %s ########\n", strings.Join(args, " "))
		if err := run(args, &got); err != nil {
			t.Fatalf("sta %v: %v", args, err)
		}
	}
	const path = "testdata/sta.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run TestOutputGolden -update writes it)", err)
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(g), len(w))
	}
}
