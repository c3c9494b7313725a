package triage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestExtractCodecRoundTrip: the pack/wire reply carries exactly what the
// extracts hold — each decoded extract marshals to the JSON bytes the
// original does, pruned violations and prune records included — and a graph
// that encodes again, its string table kept, writes the same bytes.
func TestExtractCodecRoundTrip(t *testing.T) {
	scens, _, _ := fixture(t)
	exs := extractAll(t, analyzers(t), PlanFor(scens, fixPeriod))
	pruned := 0
	for _, ex := range exs {
		pruned += ex.PrunedPairs
	}
	if pruned == 0 {
		t.Fatal("fixture prunes nothing: the round trip would not see PrunedBy")
	}
	g := NewGraph(nil)
	b := g.EncodeExtracts(7, exs)
	if again := g.EncodeExtracts(7, exs); !bytes.Equal(again, b) {
		t.Fatal("a graph encoding twice writes different bytes")
	}
	epoch, got, err := DecodeExtracts(b)
	if err != nil || epoch != 7 || len(got) != len(exs) {
		t.Fatalf("decode: epoch %d, %d extracts, %v", epoch, len(got), err)
	}
	js := 0
	for i := range exs {
		want, _ := json.Marshal(exs[i])
		have, _ := json.Marshal(got[i])
		if !bytes.Equal(have, want) {
			t.Fatalf("extract %d round trip:\n got  %.300s\n want %.300s", i, have, want)
		}
		js += len(want)
	}
	t.Logf("%d extracts: %d B on pack/wire, %d B as JSON", len(exs), len(b), js)

	// Cut anywhere, the reply answers an error, never a shorter answer.
	for n := range len(b) {
		if _, _, err := DecodeExtracts(b[:n]); err == nil {
			t.Fatalf("a reply cut to %d of %d bytes decoded", n, len(b))
		}
	}
}

// Hand-built replies that are well framed but say what cannot be: a string
// index past the table, and violations claiming more segments than their
// extract's count, or fewer.
func TestExtractDecodeRefusesBadReferences(t *testing.T) {
	ex := ScenarioExtract{Scenario: "s", Violations: []Violation{{Kind: "setup", Segments: []string{"a>b", "b>c"}}}}
	good := NewGraph(nil).EncodeExtracts(1, []ScenarioExtract{ex})
	if _, _, err := DecodeExtracts(good); err != nil {
		t.Fatal(err)
	}
	// What follows the string table: the extract count, the extract's five
	// counts and its scenario index, then the one violation (7 indices, two
	// floats, depth and segment count, two segment indices).
	table := len(good) - (4 + 6*4 + 7*4 + 2*8 + 2*4 + 2*4)
	for name, edit := range map[string]func(b []byte){
		"string index past the table":  func(b []byte) { b[table+24] = 9 },
		"segment count over the slab":  func(b []byte) { b[table+12] = 1 },
		"segment count under the slab": func(b []byte) { b[table+12] = 3 },
	} {
		b := bytes.Clone(good)
		edit(b)
		if _, _, err := DecodeExtracts(b); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// A warm graph encodes an extract reply on the writers and string table it
// keeps: the reply is the one allocation.
func TestEncodeExtractsAllocatesTheReply(t *testing.T) {
	scens, _, _ := fixture(t)
	exs := extractAll(t, analyzers(t), PlanFor(scens, fixPeriod))
	g := NewGraph(nil)
	n := len(g.EncodeExtracts(7, exs))
	if allocs := testing.AllocsPerRun(50, func() { g.EncodeExtracts(7, exs) }); allocs > 1 {
		t.Fatalf("a warm EncodeExtracts of a %d B reply makes %v allocations, want 1", n, allocs)
	}
}

// leastAlloc reports the fewest heap bytes any of three calls of fn
// allocates. The process-wide counter also counts other goroutines' bytes,
// which only ever add: for a deterministic fn the least is its own.
func leastAlloc(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// extractsFrom builds a hostile-shaped extract set from fuzz bytes: the
// violations violationsFrom decodes, split across two scenarios, one with a
// prune record.
func extractsFrom(data []byte) []ScenarioExtract {
	vs := violationsFrom(data)
	half := len(vs) / 2
	return []ScenarioExtract{
		{Scenario: "s0", Violations: vs[:half:half], AnalyzedPairs: half},
		{Scenario: "s1", Violations: vs[half:], PrunedPairs: len(vs) - half,
			Prunes: []PruneRecord{{Scenario: "s1", Kind: "setup", DominatedBy: "s0", Reason: "tighter"}}},
	}
}

// FuzzExtractDecode feeds hostile bytes to the extract decoder: it never
// panics, allocates within a fixed multiple of the input (every count is
// capped by the bytes left), and whatever it accepts encodes and decodes
// back to itself.
func FuzzExtractDecode(f *testing.F) {
	g := NewGraph(nil)
	f.Add(g.EncodeExtracts(0, nil))
	f.Add(g.EncodeExtracts(3, extractsFrom([]byte("ABCDEFFGHIJKLMNOPQRSTUVWXYZ0123456789abcdef"))))
	f.Add(g.EncodeExtracts(9, extractsFrom([]byte("\x10ab\x20xQ\x13cd\x30yQ"))))
	f.Add([]byte(`{"epoch":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, exs, err := DecodeExtracts(data)
		if n := leastAlloc(func() { DecodeExtracts(data) }); n > 32*uint64(len(data))+1024 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		b := NewGraph(nil).EncodeExtracts(epoch, exs)
		epoch2, again, err := DecodeExtracts(b)
		if err != nil || epoch2 != epoch || fmt.Sprintf("%#v", again) != fmt.Sprintf("%#v", exs) {
			t.Fatalf("encode ∘ decode is not the identity: epoch %d → %d, %v", epoch, epoch2, err)
		}
	})
}
