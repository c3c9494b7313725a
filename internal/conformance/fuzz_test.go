package conformance

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
	"newgame/internal/obs"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

// FuzzConstraintsAndRun decodes arbitrary bytes into a design point plus a
// hostile constraint set (zero, negative and absurd clock periods,
// inverted IO windows) and a short edit script that may name nonexistent
// masters. The contract: construction and analysis never panic — bad
// masters and a zero or negative period answer with an error from sta.New,
// so the zero- and negative-period seeds exercise that refusal — and when
// analysis does run, the aggregates stay sane: no NaNs, WNS/TNS clamped at
// zero, endpoint slacks sorted worst-first.
func FuzzConstraintsAndRun(f *testing.F) {
	dir := filepath.Join("testdata", "corpus", "constraints")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("seed corpus %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 12 {
			return
		}
		seed := int64(binary.LittleEndian.Uint64(raw))
		spec := SpecFor(seed)
		// Keep each exec cheap: the sweep covers big designs, fuzzing
		// covers weird parameters.
		spec.Gates = 30 + int(raw[8])%50
		spec.FFs = 3 + int(raw[9])%8
		period := units.Ps(int16(binary.LittleEndian.Uint16(raw[10:12]))) // signed: negative periods included
		lib := Lib()
		d := spec.Build(lib)

		cons := sta.NewConstraints()
		cons.AddClock("clk", period, d.Port("clk"))
		rest := raw[12:]
		for i, p := range d.Ports {
			if p.Name == "clk" {
				continue
			}
			min, max := units.Ps(0), units.Ps(0)
			if len(rest) > 2*i+1 {
				min, max = units.Ps(int8(rest[2*i])), units.Ps(int8(rest[2*i+1]))
			}
			switch p.Dir {
			case netlist.Input:
				cons.InputDelay[p] = sta.IODelay{Min: min, Max: max}
			case netlist.Output:
				cons.OutputDelay[p] = sta.IODelay{Clock: cons.Clocks[0], Min: min, Max: max}
			}
		}
		// Edit script: retype cells to byte-derived master names. Most are
		// garbage; sta.New must reject them with an error, not a panic.
		for i := 0; i+1 < len(rest) && i < 8; i += 2 {
			c := d.Cells[int(rest[i])%len(d.Cells)]
			switch rest[i+1] % 3 {
			case 0:
				c.SetType(fmt.Sprintf("INV_X%d_SVT", rest[i+1]%9))
			case 1:
				c.SetType(fmt.Sprintf("BOGUS_%d", rest[i+1]))
			}
		}

		a, err := sta.New(d, cons, sta.Config{
			Lib:        lib,
			Parasitics: sta.NewNetBinder(parasitics.Stack16(), spec.Seed),
		})
		if err != nil {
			return // rejected cleanly; that is the contract
		}
		if period <= 0 {
			t.Fatalf("sta.New accepted clock period %v", period)
		}
		if err := a.Run(); err != nil {
			return
		}
		for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
			wns, tns := a.WNS(kind), a.TNS(kind)
			if math.IsNaN(float64(wns)) || math.IsNaN(float64(tns)) {
				t.Fatalf("%v: NaN aggregate: WNS %v TNS %v (period %v)", kind, wns, tns, period)
			}
			if wns > 0 || tns > 0 {
				t.Fatalf("%v: positive violation aggregate: WNS %v TNS %v", kind, wns, tns)
			}
			eps := a.EndpointSlacks(kind)
			for i := 1; i < len(eps); i++ {
				if eps[i].Slack < eps[i-1].Slack {
					t.Fatalf("%v: endpoint slacks not sorted worst-first at %d: %v after %v",
						kind, i, eps[i].Slack, eps[i-1].Slack)
				}
			}
		}
	})
}

// independent reports whether two buffer edits touch disjoint nets, so
// either can be undone first.
func independent(e, o *BufferEdit) bool {
	for _, n := range []*netlist.Net{e.Buf.Pin("A").Net, e.Buf.Pin("Z").Net} {
		if n == o.Buf.Pin("A").Net || n == o.Buf.Pin("Z").Net {
			return false
		}
	}
	return true
}

// FuzzStructuralRerun decodes arbitrary bytes into a small design and an
// edit script that moves the graph under a living analyzer — buffers
// inserted (and chained onto one pin, as hold padding chains them), edits
// taken back in reverse or, for two independent buffers, the older one
// first, valid and bogus retypes, an input pin left floating, looped onto
// its own cell's output or moved to another net — re-timed after every op,
// by an Update after every other buffer op and by a full Run otherwise (a
// journaled buffer edit is patched into the graph either way; anything else
// is derived afresh, and the retypes are not flagged for an Update).
// The contract: nothing panics; a re-time that succeeds leaves the analyzer
// bit-identical to one built from nothing over the same netlist, one that
// fails fails there too; and once every edit has been taken back the
// analyzer runs and is identical again.
func FuzzStructuralRerun(f *testing.F) {
	// seed(8) gates(1) ffs(1), then (op, arg) pairs; see the switch below.
	head := []byte{3, 0, 0, 0, 0, 0, 0, 0, 20, 2}
	for _, ops := range [][]byte{
		{0, 5},                               // one buffer
		{0, 5, 1, 0},                         // buffer, undo
		{4, 1 | 9<<2},                        // a combinational cycle
		{4, 1 | 9<<2, 0, 7, 1, 0, 1, 0},      // buffer behind a cycle, both undone
		{3, 11, 0, 5},                        // bogus master, then a buffer
		{3, 11, 0, 5, 1, 0, 1, 0},            // ... both taken back
		{0, 5, 5, 0, 5, 0, 5, 0},             // chained pads on one pin
		{0, 5, 5, 0, 1, 0, 5, 0, 1, 0, 1, 0}, // pads coming and going
		{4, 0 | 4<<2, 2, 30, 0, 9},           // floating pin, retype, buffer
		{4, 2 | 13<<2, 2, 8, 0, 3, 4, 3 | 21<<2, 1, 0},                           // rewires around a buffer
		{2, 1, 2, 2, 0, 40, 2, 3, 1, 0, 3, 4, 5, 0, 1, 0},                        // a long mix
		{0, 5, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0}, // a 12-deep pad chain on one pin
		{4, 250, 0, 62, 1, 0},                            // a load onto out2's net, a buffer there beside the port, undone
		{0, 5, 0, 40, 1, 1, 1, 0},                        // two buffers, the older taken out first
		{0, 5, 5, 0, 5, 0, 1, 0, 1, 0, 1, 0, 0, 9, 5, 0}, // pads all taken out newest first, then pads again
		{0, 5, 5, 0, 4, 2 | 13<<2, 0, 9, 5, 0, 1, 0},     // pads, a rewire the graph is derived afresh for, pads again
	} {
		f.Add(append(append([]byte(nil), head...), ops...))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 10 {
			return
		}
		spec := SpecFor(int64(binary.LittleEndian.Uint64(raw)))
		spec.Gates = 30 + int(raw[8])%50
		spec.FFs = 3 + int(raw[9])%8
		lib := Lib()
		d := spec.Build(lib)
		cons := sta.NewConstraints()
		ck := cons.AddClock("clk", units.Ps(spec.Period), d.Port("clk"))
		for _, p := range d.Ports {
			if p.Dir == netlist.Output {
				cons.OutputDelay[p] = sta.IODelay{Clock: ck, Min: 5, Max: 40}
			}
		}
		cfg := sta.Config{
			Lib: lib, Parasitics: sta.NewKeyedNetBinder(parasitics.Stack16(), spec.Seed),
			SI: sta.DefaultSI(), Derate: sta.DefaultAOCV(), MIS: true, Workers: 1,
		}
		cfg.Obs = obs.NewRecorder() // the kept analyzer's derivations, counted
		a, err := sta.New(d, cons, cfg)
		if err != nil {
			t.Fatalf("generated design rejected: %v", err)
		}
		built := cfg.Obs.Counter("sta.topologies_built")
		cfg.Obs = nil
		check := func(ctx string, update bool) bool {
			retime := a.Run
			if update {
				retime = a.Update
			}
			runErr := retime()
			fresh, err := sta.New(d, cons, cfg)
			if err == nil {
				err = fresh.Run()
			}
			switch {
			case runErr != nil && err == nil:
				t.Fatalf("%s: kept analyzer's re-time fails (%v) where a fresh New+Run succeeds", ctx, runErr)
			case runErr == nil && err != nil:
				t.Fatalf("%s: kept analyzer's re-time succeeds where a fresh one fails: %v", ctx, err)
			case runErr == nil && Fingerprint(a) != Fingerprint(fresh):
				t.Fatalf("%s: kept analyzer differs from a fresh New+Run", ctx)
			}
			return runErr == nil
		}
		check("initial", false)

		var undo []func()      // LIFO, so every entry finds the netlist as it left it
		var bufs []*BufferEdit // per undo entry, the buffer it takes out, if one
		var lastBuf *netlist.Cell
		buffer := func(n *netlist.Net, moved []*netlist.Pin) {
			e, err := InsertBuffer(d, n, moved, "BUF_X1_HVT")
			if err != nil {
				t.Fatal(err)
			}
			prev := lastBuf
			lastBuf = e.Buf
			undo = append(undo, func() {
				e.Undo(d)
				lastBuf = prev
			})
			bufs = append(bufs, e)
		}
		ops := raw[10:]
		for i := 0; i+1 < len(ops) && i < 24; i += 2 {
			op, arg := ops[i]%6, int(ops[i+1])
			ctx := fmt.Sprintf("op %d (%d,%d)", i/2, op, arg)
			bufferOp, older := op == 0 || op == 5, false
			switch op {
			case 5: // pad the last buffer's input again
				if lastBuf != nil && lastBuf.Pin("A").Net != nil {
					in := lastBuf.Pin("A")
					buffer(in.Net, []*netlist.Pin{in})
					break
				}
				fallthrough
			case 0:
				for k := range d.Nets {
					if n := d.Nets[(arg+k)%len(d.Nets)]; len(n.Loads) > 0 {
						buffer(n, n.Loads[:1+(arg>>4)%len(n.Loads)])
						break
					}
				}
			case 1:
				k := len(undo) - 1
				if arg&1 == 1 && k > 0 && bufs[k] != nil && bufs[k-1] != nil && independent(bufs[k], bufs[k-1]) {
					// The older of two buffers on unrelated nets comes out
					// first: a removal that is not of the newest cell.
					k, older = k-1, true
				}
				if k >= 0 {
					bufferOp = bufs[k] != nil
					undo[k]()
					undo, bufs = slices.Delete(undo, k, k+1), slices.Delete(bufs, k, k+1)
				}
			case 2, 3:
				c := d.Cells[arg%len(d.Cells)]
				old, to := c.TypeName, fmt.Sprintf("BOGUS_%d", arg)
				if op == 2 {
					m := lib.Cell(old)
					if m == nil {
						continue // already bogus
					}
					v := lib.Variant(m, m.Drive, liberty.VtClass(arg%3))
					if v == nil {
						continue
					}
					to = v.Name
				}
				c.SetType(to)
				undo = append(undo, func() { c.SetType(old) })
				bufs = append(bufs, nil)
			case 4:
				c := d.Cells[(arg>>2)%len(d.Cells)]
				ins := c.Inputs()
				if len(ins) == 0 || ins[0].Net == nil {
					continue
				}
				p, was := ins[0], ins[0].Net
				d.Disconnect(p)
				to := d.Nets[(arg>>2)%len(d.Nets)]
				switch arg & 3 {
				case 0:
					to = nil // left floating
				case 1:
					if out := c.Output(); out != nil && out.Net != nil {
						to = out.Net // a loop through its own cell
					}
				}
				if to != nil {
					if err := d.Connect(c, p.Name, to); err != nil {
						t.Fatal(err)
					}
				}
				undo = append(undo, func() {
					d.Disconnect(p)
					if err := d.Connect(c, p.Name, was); err != nil {
						t.Fatal(err)
					}
				})
				bufs = append(bufs, nil)
			}
			before := built.Value()
			if check(ctx, bufferOp && i/2%2 == 1) && older && built.Value() == before {
				t.Fatalf("%s: a removal of a buffer older than the newest was patched, not derived", ctx)
			}
		}
		for len(undo) > 0 {
			undo[len(undo)-1]()
			undo = undo[:len(undo)-1]
		}
		if !check("everything taken back", false) {
			t.Fatal("the original netlist no longer runs once every edit is taken back")
		}
	})
}
