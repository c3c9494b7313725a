package pack

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"newgame/internal/circuits"
	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// The fixture snapshot is a real (small) design analyzed by a real run, so
// the pack carries a genuine frozen topology and genuine synthesized trees.
var (
	fixOnce sync.Once
	fixSnap *Snapshot
)

func testSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	fixOnce.Do(func() {
		lib := liberty.Generate(liberty.Node16,
			liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85}, liberty.GenOptions{})
		stack := parasitics.Stack16()
		d := circuits.Block(lib, circuits.BlockSpec{
			Name: "pk", Inputs: 6, Outputs: 6, FFs: 12, Gates: 120,
			MaxDepth: 7, Seed: 11, ClockBufferLevels: 1,
			VtMix: [3]float64{0, 0.5, 0.5},
		})
		cons := sta.NewConstraints()
		cons.AddClock("clk", 600, d.Port("clk"))
		binder := sta.NewKeyedNetBinder(stack, 11)
		a, err := sta.New(d, cons, sta.Config{Lib: lib, Parasitics: binder, Derate: sta.DefaultAOCV(), SI: sta.DefaultSI(), MIS: true})
		if err != nil {
			panic(err)
		}
		if err := a.Run(); err != nil {
			panic(err)
		}
		fixSnap = &Snapshot{
			Design: d,
			Recipe: &core.Recipe{
				Name: "pk_recipe",
				Scenarios: []core.Scenario{
					{
						Name: "setup_aocv", Lib: lib,
						Scaling:     stack.Corner(parasitics.CWorst, 3),
						PeriodScale: 1, Derate: sta.DefaultAOCV(),
						SI: sta.DefaultSI(), MIS: true,
						ForSetup: true, SetupUncertainty: 12,
					},
					{
						Name: "hold_flat", Lib: lib, // shared lib: exercises dedup
						Scaling:     stack.Corner(parasitics.CBest, 3),
						PeriodScale: 1, Derate: sta.DefaultFlatOCV(),
						ForHold: true, HoldUncertainty: 8,
					},
				},
				MaxIterations: 3, UsePBA: true, PBAEndpoints: 10,
				UseUsefulSkew: true, RecoverySlackFloor: 60,
			},
			Stack:        stack,
			ClockPort:    "clk",
			BasePeriod:   600,
			InputArrival: 20,
			Seed:         11,
			Epoch:        3,
			Topology:     a.Topology(),
			Parasitics:   binder,
		}
	})
	return fixSnap
}

// Encode → Decode → Encode must be byte-identical: the encoding is
// canonical (sorted cells, order-exact blueprint, first-seen lib order), so
// byte equality of the re-encode proves every decoded structure carries
// exactly the saved state.
func TestRoundTripByteStable(t *testing.T) {
	snap := testSnapshot(t)
	b1, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(b1), len(b2))
	}
	if dec.Epoch != snap.Epoch || dec.ClockPort != snap.ClockPort ||
		dec.BasePeriod != snap.BasePeriod || dec.InputArrival != snap.InputArrival || dec.Seed != snap.Seed {
		t.Fatalf("meta mismatch: %+v", dec)
	}
	if dec.Topology == nil {
		t.Fatal("topology not decoded")
	}
	for i, n := range snap.Design.Nets {
		if !reflect.DeepEqual(snap.Parasitics.Tree(n), dec.Parasitics.Tree(dec.Design.Nets[i])) {
			t.Fatalf("net %s: decoded tree differs from the saved one", n.Name)
		}
	}
	if !reflect.DeepEqual(dec.Design.Blueprint(), snap.Design.Blueprint()) {
		t.Fatal("decoded design blueprint differs")
	}
}

// A decoded topology must be adoptable by a fresh analyzer over the decoded
// design — the warm-start path — and the analyzer must keep the exact
// pointer (proof it skipped levelization rather than rebuilt).
func TestDecodedTopologyAdopted(t *testing.T) {
	snap := testSnapshot(t)
	b, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	cons := sta.NewConstraints()
	cons.AddClock("clk", units.Ps(600), dec.Design.Port("clk"))
	a, err := sta.New(dec.Design, cons, sta.Config{
		Lib: dec.Recipe.Scenarios[0].Lib, Parasitics: dec.Parasitics,
		Derate: sta.DefaultAOCV(), SI: sta.DefaultSI(), MIS: true,
		Topology: dec.Topology,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Topology() != dec.Topology {
		t.Fatal("analyzer rebuilt the topology instead of adopting the decoded one")
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoad(t *testing.T) {
	snap := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "state.pack")
	n, err := Save(path, snap)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != st.Size() {
		t.Fatalf("Save reported %d bytes, file has %d", n, st.Size())
	}
	dec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch != snap.Epoch {
		t.Fatalf("epoch %d != %d", dec.Epoch, snap.Epoch)
	}
}

// Every truncation of a valid pack must error cleanly.
func TestDecodeTruncations(t *testing.T) {
	b, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	step := len(b)/257 + 1
	for n := 0; n < len(b); n += step {
		if _, err := Decode(b[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(b))
		}
	}
}

// Every single-bit flip must error: the header is fully validated and every
// section payload is CRC-checked, so there is no byte corruption can hide
// in.
func TestDecodeBitFlips(t *testing.T) {
	orig, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	step := len(orig)/331 + 1
	for i := 0; i < len(orig); i += step {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x10
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded without error", i)
		}
	}
}

// A pack's library tables pass the check a parsed table passes.
func TestDecodeRejectsInvalidTables(t *testing.T) {
	names, packs := invalidTablePacks(t)
	for i, b := range packs {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decoded without error", names[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NG"),
		[]byte("BOGUS-not-a-pack"),
		append([]byte("NGTP"), 0xFF, 0xFF, 0x00, 0x00), // absurd version
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Fatalf("garbage %q decoded without error", c)
		}
	}
}
