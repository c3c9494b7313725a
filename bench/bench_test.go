package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes "itself" as the poller or for a set-up sample.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

type manifestMetric struct {
	metricDef
	Bound *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func defsOf(ms []manifestMetric) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = m.metricDef
	}
	return out
}

// TestManifestMatchesRegistry holds BENCHMARK.json and metrics.go equal and
// inside the contract's limits.
func TestManifestMatchesRegistry(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(defsOf(m.EndToEnd), endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from metrics.go:\n%v\n%v", defsOf(m.EndToEnd), endToEnd)
	}
	if !reflect.DeepEqual(defsOf(m.PerLayer), perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from metrics.go")
	}
	if n := len(m.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in workloads.go; the contract allows 2..8", n, len(workloads))
	}
	for i, w := range m.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in workloads.go", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the contract allows 1..16 and 1..128", len(m.EndToEnd), len(m.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setupBound := 0.0
	for _, mm := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if !name.MatchString(mm.Name) || !unit.MatchString(mm.Unit) || (mm.Better != "lower" && mm.Better != "higher") {
			t.Errorf("metric %+v breaks the naming contract", mm.metricDef)
		}
		if seen[mm.Name] {
			t.Errorf("metric name %s is used twice", mm.Name)
		}
		seen[mm.Name] = true
	}
	for _, mm := range m.EndToEnd {
		if mm.Bound == nil || *mm.Bound <= 0 || *mm.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", mm.Name)
		} else if mm.Name == "setup_s" {
			setupBound = *mm.Bound
		}
	}
	for _, mm := range m.EndToEnd {
		if mm.Bound != nil && *mm.Bound > setupBound {
			t.Errorf("setup_s must carry the largest bound; %s has %v > %v", mm.Name, *mm.Bound, setupBound)
		}
	}
	for _, mm := range m.PerLayer {
		if mm.Bound != nil {
			t.Errorf("per-layer metric %s must not carry a bound", mm.Name)
		}
	}
	if runs := 4 + 22*len(m.Workloads); m.RunSeconds < 1 || m.RunSeconds > 60 || runs*(m.RunSeconds+8) > 3420 {
		t.Errorf("run_seconds %d: %d runs with set-up would not fit 3420 s", m.RunSeconds, runs)
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, on the tiny
// designs: every check must pass and the result line must carry exactly the
// metrics BENCHMARK.json promises for that kind of run.
func TestWorkloadsTiny(t *testing.T) {
	m := readManifest(t)
	outDir = t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(runOpts{workload: w.name, seed: 1, seconds: 0.6, traced: traced, sc: scales["tiny"]})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", w.name, traced, res.Failed, res.Attempted, res.notes)
			}
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			got := res.wire(false).Metrics
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the result line, BENCHMARK.json lists %d", w.name, traced, len(got), len(want))
			}
			for _, mm := range want {
				v, ok := got[mm.Name]
				if !ok || v.Unit != mm.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.name, traced, mm.Name, v.Unit, mm.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, mm.Name, v.Value)
				}
			}
			if traced {
				checkLayerPredictions(t, w.name, res)
			}
		}
	}
	if peak := clientsPeak.Load(); peak > clientLimit {
		t.Errorf("%d client goroutines at once, limit %d", peak, clientLimit)
	}
}

// checkLayerPredictions pins which layers a workload may and may not enter.
func checkLayerPredictions(t *testing.T, workload string, res *result) {
	t.Helper()
	serving := workload != "batch_signoff"
	for name, v := range res.values {
		layer, _, _ := strings.Cut(name, ".")
		switch {
		case layer == "cluster" && workload != "cluster_eco_loop" && v != 0:
			t.Errorf("%s reports %s = %v; only cluster_eco_loop enters the cluster layer", workload, name, v)
		case (layer == "timingd" || layer == "client" || layer == "workpool") && !serving && v != 0:
			t.Errorf("batch_signoff reports %s = %v; it has no serving layer", name, v)
		}
	}
	hit := res.values["timingd.cache_hit_ratio"]
	if workload == "node_read_hot" && hit < 0.99 {
		t.Errorf("node_read_hot cache hit ratio %v, want at least 0.99", hit)
	}
	if strings.HasSuffix(workload, "_eco_loop") && hit > 0.6 {
		t.Errorf("%s cache hit ratio %v, want at most 0.6: every commit purges the cache", workload, hit)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, Python gives 1 2 3", q1, q2, q3)
	}
}
