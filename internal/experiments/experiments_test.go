package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden")

// TestAllExperimentsRun executes every experiment end-to-end and checks
// the headline numbers land on the paper's side of each claim. This is the
// repository's reproduction gate. On amd64 every report — what
// cmd/experiments -run all prints, less fig11's wall-time rows — must also
// equal testdata/all.golden; -update rewrites it.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short")
	}
	var all bytes.Buffer
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run()
			fmt.Fprintf(&all, "\n######## %s: %s ########\n%s", e.ID, e.Title, stable(r.Text))
			if r.Title == "error" {
				t.Fatalf("experiment failed: %s", r.Text)
			}
			if len(r.Text) == 0 {
				t.Fatal("empty report")
			}
			if strings.Contains(r.Text, "NaN") {
				t.Errorf("report contains NaN:\n%s", r.Text)
			}
		})
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden holds floats as amd64 rounds them; GOARCH=%s may not", runtime.GOARCH)
	}
	const path = "testdata/all.golden"
	if *update {
		if err := os.WriteFile(path, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run TestAllExperimentsRun -update writes it)", err)
	}
	got, wantLines := strings.Split(all.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(got), len(wantLines))
	}
}

// wallTime names fig11's rows that report wall-clock time.
var wallTime = []string{"GBA full-update time (ms)", "-path time (ms)", "PBA/GBA runtime ratio"}

// stable is a report as the golden holds it: wall-time rows dropped,
// trailing blanks trimmed, and each table rule cut to its header's width —
// a dropped row may have widened the last column.
func stable(text string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if slices.ContainsFunc(wallTime, func(s string) bool { return strings.Contains(l, s) }) {
			continue
		}
		l = strings.TrimRight(l, " ")
		if n := len(out); n > 0 && l != "" && strings.Trim(l, "- ") == "" {
			l = l[:min(len(l), len(out[n-1]))]
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

func TestFind(t *testing.T) {
	if Find("fig4") == nil {
		t.Error("fig4 not found")
	}
	if Find("nope") != nil {
		t.Error("bogus id found")
	}
}

func TestFig03Quick(t *testing.T) {
	r := Fig03CareAbouts()
	if r.Keys["concerns_7nm"] <= r.Keys["concerns_90nm"] {
		t.Error("care-about burden must grow toward 7nm")
	}
}

func TestFig04Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("spice sweeps in -short")
	}
	r := Fig04MIS()
	// Falling input: pronounced speed-up at both voltages.
	if r.Keys["ratio_fall_100"] >= 0.8 {
		t.Errorf("fall MIS/SIS at VDD = %v, want < 0.8", r.Keys["ratio_fall_100"])
	}
	// Rising input: slow-down.
	if r.Keys["ratio_rise_100"] <= 1.05 {
		t.Errorf("rise MIS/SIS at VDD = %v, want > 1.05", r.Keys["ratio_rise_100"])
	}
}

func TestFig07Claims(t *testing.T) {
	r := Fig07MCAsymmetry()
	if r.Keys["skewness"] <= 0 {
		t.Error("MC skewness must be positive (setup long tail)")
	}
	if r.Keys["sigma_ratio"] <= 1 {
		t.Error("late sigma must exceed early sigma")
	}
}

func TestFig08Claims(t *testing.T) {
	r := Fig08TBC()
	if r.Keys["tbc_violations"] >= r.Keys["cbc_violations"] {
		t.Error("TBC must reduce violations vs CBC")
	}
	if r.Keys["escapes"] != 0 {
		t.Error("TBC recipe must have no material escapes")
	}
}

func TestFig12Claims(t *testing.T) {
	r := Fig12CornerExplosion()
	if r.Keys["full"] < 1000 {
		t.Errorf("corner space = %v, expected an explosion (>1000)", r.Keys["full"])
	}
	// One setup scenario per SSG class and one hold scenario per FFG class:
	// 18 PVT corners × 7 BEOL × 8 mask shifts on each side.
	if r.Keys["kept"] != 2016 || r.Keys["pruned"] != 10080 {
		t.Errorf("kept %v, pruned %v; want 2016 and 10080", r.Keys["kept"], r.Keys["pruned"])
	}
	// A pruned scenario's dominator has its delays (same PVT, BEOL and mask
	// shift) and is itself kept.
	p := fig12Space().Prune()
	for j, sc := range p.Scenarios {
		for _, d := range []int{p.SetupDominator[j], p.HoldDominator[j]} {
			if d < 0 {
				continue
			}
			dom := p.Scenarios[d]
			if dom.PVT != sc.PVT || dom.BEOL != sc.BEOL || dom.MaskShift != sc.MaskShift {
				t.Fatalf("%s dominated by %s across classes", sc.Name(), dom.Name())
			}
			if !p.Kept(d) {
				t.Fatalf("%s dominated by %s, which is itself pruned", sc.Name(), dom.Name())
			}
		}
	}
}

func TestAblationDeratingAccuracyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("closure runs in -short")
	}
	r := Ablations()
	// The §3.1 modeling trajectory: LVF (slew/load- and side-specific σ)
	// must beat POCV's single symmetric number, which must beat no OCV at
	// all, against the same Monte Carlo truth.
	if !(r.Keys["err_lvf"] < r.Keys["err_pocv"]) {
		t.Errorf("LVF error (%v) should beat POCV (%v)", r.Keys["err_lvf"], r.Keys["err_pocv"])
	}
	if !(r.Keys["err_pocv"] < r.Keys["err_nom"]) {
		t.Errorf("POCV error (%v) should beat nominal (%v)", r.Keys["err_pocv"], r.Keys["err_nom"])
	}
	// PBA reclassification must not increase fix effort.
	if r.Keys["pba_moves"] > r.Keys["gba_moves"] {
		t.Errorf("PBA closure used more moves (%v) than GBA-only (%v)",
			r.Keys["pba_moves"], r.Keys["gba_moves"])
	}
	if r.Keys["jitter_recovered"] <= 0 {
		t.Error("cycle-to-cycle jitter model recovered nothing")
	}
}
