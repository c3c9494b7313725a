package pack

import (
	"math"
	"testing"

	"newgame/internal/core"
	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
)

// tinySnapshot is a minimal-but-complete pack: one buffer cell, a two-net
// design, one parasitic tree, a one-scenario recipe, no topology. Small
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
	tr := parasitics.NewTree()
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
	for _, b := range invalid {
		f.Add(b)
	}
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
