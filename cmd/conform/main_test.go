package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sweep.golden")

// elapsed matches a wall-clock duration the sweep prints, with the space or
// parenthesis before it and any padding in between.
var elapsed = regexp.MustCompile(`([ (]) *\d[\d.hmµn]*s\b`)

// TestRunQuickSweep holds a small sweep's report — every law's name, its
// place in the roster, its check count and its status — to
// testdata/sweep.golden, with elapsed times blanked; -update rewrites it.
func TestRunQuickSweep(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-designs", "2", "-edits", "4", "-seed", "7"}, &b); err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, b.String())
	}
	got := elapsed.ReplaceAllString(b.String(), "${1}<t>")
	const path = "testdata/sweep.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run TestRunQuickSweep -update writes it)", err)
	}
	if got != string(want) {
		t.Fatalf("sweep report differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestRunOnlyFilter(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-designs", "1", "-only", "kworst-sorted-prefix-stable"}, &b); err != nil {
		t.Fatalf("filtered sweep failed: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "kworst-sorted-prefix-stable") || strings.Contains(out, "pba-refines-gba") {
		t.Errorf("-only filter not applied:\n%s", out)
	}

	// A typo must not check nothing and pass.
	b.Reset()
	err := run([]string{"-designs", "1", "-only", "kworst-sorted-prefix-stable,no-such-law"}, &b)
	if err == nil || !strings.Contains(err.Error(), `"no-such-law"`) || !strings.Contains(err.Error(), "pba-refines-gba") {
		t.Fatalf("unknown -only law: want an error naming it and the known laws, got %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("unknown -only law ran a sweep:\n%s", b.String())
	}
}

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pba-refines-gba") {
		t.Errorf("list output missing laws:\n%s", b.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &b); err == nil {
		t.Fatal("want flag parse error")
	}
}
