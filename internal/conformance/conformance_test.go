package conformance

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRegistrySweep runs every law over a small design sample — the
// in-tree version of the cmd/conform CI sweep.
func TestRegistrySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is not short")
	}
	res := Run(Options{Designs: 4, Edits: 6, Seed: 1})
	for _, f := range res.Failures() {
		t.Errorf("%s: %s\nrepro:\n%s", f.Invariant, f.Err, Format(f.Repro))
	}
	t.Log("\n" + res.String())
}

// loadRepros reads every reproducer under dir (testdata/repros), sorted
// by filename for deterministic replay order.
func loadRepros(dir string) ([]Repro, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := make([]Repro, 0, len(names))
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var r Repro
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// TestReproCorpus replays every committed reproducer: each records a
// once-failing (or demonstrative) case that must hold forever.
func TestReproCorpus(t *testing.T) {
	repros, err := loadRepros("testdata/repros")
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatal("no reproducers in testdata/repros; the corpus must at least hold the demonstrative case")
	}
	for i, r := range repros {
		r := r
		t.Run(fmt.Sprintf("%02d-%s", i, r.Invariant), func(t *testing.T) {
			t.Parallel()
			if err := Replay(r); err != nil {
				t.Errorf("repro regressed: %v\n%s", err, Format(r))
			}
		})
	}
}

func TestReplayUnknownInvariant(t *testing.T) {
	if err := Replay(Repro{Invariant: "no-such-law"}); err == nil ||
		!strings.Contains(err.Error(), "unknown invariant") {
		t.Fatalf("want unknown-invariant error, got %v", err)
	}
}

// TestMinimize drives the shrinker with a synthetic oracle: the failure
// needs edit "bad7" AND at least one of "bad2"/"bad4"; everything else
// is noise that must be removed.
func TestMinimize(t *testing.T) {
	var edits []EditOp
	for i := 0; i < 12; i++ {
		edits = append(edits, EditOp{Cell: fmt.Sprintf("bad%d", i), To: "X"})
	}
	oracle := func(r Repro) error {
		has := map[string]bool{}
		for _, e := range r.Edits {
			has[e.Cell] = true
		}
		if has["bad7"] && (has["bad2"] || has["bad4"]) {
			return errors.New("still failing")
		}
		return nil
	}
	min := Minimize(Repro{Invariant: "synthetic", Edits: edits}, oracle)
	if len(min.Edits) != 2 {
		t.Fatalf("minimized to %d edits (%v), want 2", len(min.Edits), min.Edits)
	}
	if oracle(min) == nil {
		t.Fatal("minimized repro no longer fails the oracle")
	}
}

// TestMinimizePassingReproIsIdentity: a repro that doesn't fail is
// returned untouched — minimizing against a passing oracle would strip
// everything.
func TestMinimizePassingReproIsIdentity(t *testing.T) {
	r := Repro{Invariant: "synthetic", Edits: []EditOp{{Cell: "a", To: "b"}}}
	min := Minimize(r, func(Repro) error { return nil })
	if len(min.Edits) != 1 {
		t.Fatalf("passing repro was modified: %v", min)
	}
}

// TestSpecForDeterministic: the design distribution is keyed entirely by
// the seed — same seed, same spec.
func TestSpecForDeterministic(t *testing.T) {
	if SpecFor(42) != SpecFor(42) {
		t.Fatal("SpecFor is not deterministic")
	}
	if SpecFor(1) == SpecFor(2) {
		t.Fatal("distinct seeds collapsed to one spec")
	}
}

// TestFingerprintDiscriminates: the fingerprint must move when timing
// state moves (different period ⇒ different required times).
func TestFingerprintDiscriminates(t *testing.T) {
	spec := SpecFor(mix(3, 0))
	cx := newCtx(PerDesign, spec, 0)
	a, err := cx.Base()
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.Period += 40
	cx2 := newCtx(PerDesign, spec2, 0)
	b, err := cx2.Base()
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) != Fingerprint(a) {
		t.Fatal("fingerprint not stable on the same analyzer")
	}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("fingerprint blind to a period change")
	}
}
