package pack

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// tinySnapshot is a minimal-but-complete pack: one buffer cell, a two-net
// design, one parasitic tree, a one-scenario recipe. Small
// enough to seed the fuzz corpus without bloating testdata.
func tinySnapshot(t testing.TB) *Snapshot {
	t.Helper()
	one := []float64{10}
	tbl := func(v float64) *liberty.Table2D {
		return liberty.NewTable2D(one, one, func(r, c float64) float64 { return v })
	}
	lib := liberty.NewLibrary("tiny", liberty.Node16,
		liberty.PVT{Process: liberty.TT, Voltage: 0.8, Temp: 85})
	lib.Add(&liberty.Cell{
		Name: "BUF_X1_SVT", Function: "BUF", Drive: 1, Vt: liberty.SVT,
		Area: 1, Leakage: 2, MaxTran: 300,
		Pins: []liberty.PinSpec{
			{Name: "A", Input: true, Cap: 1.5},
			{Name: "Z", MaxCap: 60},
		},
		Arcs: []liberty.TimingArc{{
			From: "A", To: "Z", Sense: liberty.PositiveUnate,
			DelayRise: tbl(12), DelayFall: tbl(13),
			SlewRise: tbl(20), SlewFall: tbl(21),
			MISFactorFast: 1, MISFactorSlow: 1,
		}},
	})
	d, err := netlist.FromBlueprint(&netlist.Blueprint{
		Name: "tiny", NameSeq: 1,
		Cells: []netlist.BlueprintCell{{
			Name: "u1", TypeName: "BUF_X1_SVT",
			Pins: []netlist.PinDecl{netlist.In("A"), netlist.Out("Z")},
		}},
		Nets: []netlist.BlueprintNet{
			{Name: "n_in", Driver: netlist.PinRef{Cell: -1, Pin: -1},
				Loads: []netlist.PinRef{{Cell: 0, Pin: 0}}, Port: 0},
			{Name: "n_out", Driver: netlist.PinRef{Cell: 0, Pin: 1}, Port: 1},
		},
		Ports: []netlist.BlueprintPort{
			{Name: "in", Dir: netlist.Input, Net: 0},
			{Name: "out", Dir: netlist.Output, Net: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := parasitics.NewTree(0, 0)
	tr.MarkSink(tr.AddNode(0, 0.02, 1.1, 0.3, 2))
	trees := sta.NewKeyedNetBinder(parasitics.Stack16(), 1)
	trees.Fill(d.Net("n_out"), tr)
	return &Snapshot{
		Design: d,
		Recipe: &core.Recipe{
			Name: "tiny",
			Scenarios: []core.Scenario{
				{Name: "setup", Lib: lib, PeriodScale: 1, ForSetup: true},
			},
			MaxIterations: 1,
		},
		Stack:      parasitics.Stack16(),
		ClockPort:  "in",
		BasePeriod: 500,
		Seed:       1,
		Epoch:      0,
		Parasitics: trees,
	}
}

// invalidTablePacks encodes tinySnapshot with its buffer's rise-delay table
// replaced by one that liberty.Table2D.Validate refuses: one NaN value, or
// one axis point out of order. Encode writes tables as raw slabs, so only
// the decoder can refuse them.
func invalidTablePacks(t testing.TB) (names []string, packs [][]byte) {
	t.Helper()
	for _, c := range []struct {
		name string
		tbl  *liberty.Table2D
	}{
		{"NaN value", &liberty.Table2D{RowAxis: []float64{10, 20}, ColAxis: []float64{1, 2},
			Values: [][]float64{{12, 13}, {math.NaN(), 15}}}},
		{"axis out of order", &liberty.Table2D{RowAxis: []float64{10, 30, 20}, ColAxis: []float64{1, 2},
			Values: [][]float64{{12, 13}, {14, 15}, {16, 17}}}},
	} {
		snap := tinySnapshot(t)
		snap.Recipe.Scenarios[0].Lib.Cell("BUF_X1_SVT").Arcs[0].DelayRise = c.tbl
		b, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		names, packs = append(names, c.name), append(packs, b)
	}
	return names, packs
}

// hostileTreePacks encodes tinySnapshot and rewrites one word of its tree in
// the TREE section, fixing the section's CRC so that only the tree decoder
// can refuse it: a layer of 300 (past the stack and past the byte a layer is
// narrowed to), or a node that is its own parent. The tree is root → node 1
// on layer 2, so its parent slab is {2, -1, 0} and its layer slab {2, -1, 2}.
func hostileTreePacks(t testing.TB) (names []string, packs [][]byte) {
	t.Helper()
	words := func(vs ...int32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		return b
	}
	for _, c := range []struct {
		name     string
		old, new []byte
	}{
		{"layer 300", words(2, -1, 2), words(2, -1, 300)},
		{"parent not before its node", words(2, -1, 0), words(2, -1, 1)},
	} {
		b, err := Encode(tinySnapshot(t))
		if err != nil {
			t.Fatal(err)
		}
		for e := headerSize; e < headerSize+sectionEntrySize*int(binary.LittleEndian.Uint16(b[6:])); e += sectionEntrySize {
			if string(b[e:e+4]) != secTrees {
				continue
			}
			off, n := binary.LittleEndian.Uint64(b[e+4:]), binary.LittleEndian.Uint64(b[e+12:])
			payload := b[off : off+n]
			if k := bytes.Count(payload, c.old); k != 1 {
				t.Fatalf("%s: the tree words occur %d times in the TREE section, want 1", c.name, k)
			}
			copy(payload[bytes.Index(payload, c.old):], c.new)
			binary.LittleEndian.PutUint32(b[e+20:], crc32.ChecksumIEEE(payload))
		}
		names, packs = append(names, c.name), append(packs, b)
	}
	return names, packs
}

// hostileStackPacks encodes tinySnapshot over a stack no net can be routed
// on: a single layer (the synthesis rule routes short nets on layer 1), or a
// NaN per-µm resistance. The packs save no tree, so every net with sinks is
// routed on the decoded stack at the first Refresh.
func hostileStackPacks(t testing.TB) (names []string, packs [][]byte) {
	t.Helper()
	nanR := parasitics.Stack16()
	nanR.Layers[0].RPerUm = units.KOhm(math.NaN())
	for _, c := range []struct {
		name  string
		stack *parasitics.Stack
	}{
		{"1-layer stack", &parasitics.Stack{Name: "m1", Layers: parasitics.Stack16().Layers[:1]}},
		{"NaN RPerUm", nanR},
	} {
		snap := tinySnapshot(t)
		snap.Stack, snap.Parasitics = c.stack, sta.NewKeyedNetBinder(c.stack, snap.Seed)
		b, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		names, packs = append(names, c.name), append(packs, b)
	}
	return names, packs
}

// withVersion is a copy of pack b whose header names format version v. The
// header carries no checksum, so only the version check can refuse it.
func withVersion(b []byte, v uint16) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint16(out[4:], v)
	return out
}

// FuzzPackDecode feeds hostile bytes to the full decode stack. The contract
// under attack: never panic, never over-allocate (wire.Reader caps every
// count by remaining bytes), and anything that decodes must re-encode.
func FuzzPackDecode(f *testing.F) {
	tiny, err := Encode(tinySnapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tiny)
	// Structural mutants seed the interesting branches: bad section CRC,
	// truncated table, foreign magic.
	if len(tiny) > 64 {
		mut := append([]byte(nil), tiny...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(mut)
		f.Add(tiny[:len(tiny)/2])
	}
	f.Add([]byte("NGTP"))
	_, invalid := invalidTablePacks(f)
	_, hostile := hostileTreePacks(f)
	_, stacks := hostileStackPacks(f)
	for _, b := range append(append(invalid, hostile...), stacks...) {
		f.Add(b)
	}
	f.Add(withVersion(tiny, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return
		}
		if _, err := Encode(snap); err != nil {
			t.Fatalf("decoded pack failed to re-encode: %v", err)
		}
	})
}

// FuzzLogDecode drives the epoch-record frame decoder the same way.
func FuzzLogDecode(f *testing.F) {
	rec := EpochRecord{Epoch: 7, Ops: []EpochOp{
		{Kind: "resize", Cell: "u1", To: "INV_X2_LVT"},
		{Kind: "buffer", Net: "n1", Loads: []string{"u2/A"}, To: "BUF_X1_SVT"},
	}}
	f.Add(encodeEpochRecord(rec))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeEpochRecord(data); err != nil {
			return
		}
	})
}
