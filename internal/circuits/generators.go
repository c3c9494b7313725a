package circuits

import (
	"fmt"
	"math/rand"

	"newgame/internal/liberty"
	"newgame/internal/netlist"
)

// ChainSpec describes a registered gate chain: FF → n combinational stages
// → FF, the canonical focused-experiment circuit.
type ChainSpec struct {
	Stages int
	// Gate is the combinational master function (INV default).
	Gate string
	// Drive/Vt of the chain gates.
	Drive float64
	Vt    liberty.VtClass
}

// Chain builds the registered chain. Ports: clk, din, dout. Multi-input
// gates have their side inputs tied to din's net (constant-ish; timing only
// cares about topology).
func Chain(lib *liberty.Library, spec ChainSpec) *netlist.Design {
	if spec.Gate == "" {
		spec.Gate = "INV"
	}
	if spec.Drive == 0 {
		spec.Drive = 1
	}
	d := netlist.New(fmt.Sprintf("chain_%s_%d", spec.Gate, spec.Stages))
	clk := mustPort(d, "clk", netlist.Input)
	din := mustPort(d, "din", netlist.Input)
	dout := mustPort(d, "dout", netlist.Output)

	ffM := liberty.CellName("DFF", 1, liberty.SVT)
	launch := mustCell(d, lib, "ff_launch", ffM)
	capture := mustCell(d, lib, "ff_capture", ffM)
	connect(d, launch, "CK", clk.Net)
	connect(d, capture, "CK", clk.Net)
	connect(d, launch, "D", din.Net)

	prev := mustNet(d, "q0")
	connect(d, launch, "Q", prev)
	master := liberty.CellName(spec.Gate, spec.Drive, spec.Vt)
	inputs := liberty.FunctionInputs(spec.Gate)
	for i := 0; i < spec.Stages; i++ {
		g := mustCell(d, lib, fmt.Sprintf("g%d", i), master)
		connect(d, g, inputs[0], prev)
		for _, side := range inputs[1:] {
			connect(d, g, side, din.Net)
		}
		next := mustNet(d, fmt.Sprintf("n%d", i+1))
		connect(d, g, "Z", next)
		prev = next
	}
	connect(d, capture, "D", prev)
	connect(d, capture, "Q", dout.Net)
	return d
}

// BlockSpec describes a synthetic registered logic block.
type BlockSpec struct {
	Name string
	// Inputs/Outputs are the primary data port counts.
	Inputs, Outputs int
	// FFs is the flip-flop count.
	FFs int
	// Gates is the combinational gate count.
	Gates int
	// MaxDepth is the target logic depth between registers.
	MaxDepth int
	// Seed makes generation deterministic.
	Seed int64
	// ClockBufferLevels inserts a fanout-balanced clock buffer tree of the
	// given depth (0 = flat clock net).
	ClockBufferLevels int
	// ClockGating splices integrated clock-gating cells onto every second
	// leaf-level clock net, with enables driven from the first primary
	// input — the low-power structure whose enable timing the paper's §1.2
	// warns about.
	ClockGating bool
	// VtMix gives the probability of LVT/SVT/HVT assignment (defaults to
	// an all-SVT netlist, letting optimization discover the mix).
	VtMix [3]float64
	// Drives lists allowed initial drive strengths (default {1, 2}).
	Drives []float64
}

// gatePalette lists the functions used by the random generator, weighted
// toward 2-input gates like real mapped netlists.
var gatePalette = []string{
	"INV", "NAND2", "NAND2", "NOR2", "AND2", "OR2",
	"NAND3", "NOR3", "XOR2", "XNOR2", "AOI21", "OAI21", "MUX2", "BUF",
}

// Block synthesizes a registered random-logic block: FF outputs and primary
// inputs feed a levelized random DAG; DAG outputs feed FF inputs and
// primary outputs. All nets are single-driver by construction; logic depth
// between registers is bounded by MaxDepth.
func Block(lib *liberty.Library, spec BlockSpec) *netlist.Design {
	rng := rand.New(rand.NewSource(spec.Seed))
	if spec.MaxDepth <= 0 {
		spec.MaxDepth = 10
	}
	if spec.Inputs <= 0 {
		spec.Inputs = 8
	}
	if spec.Outputs <= 0 {
		spec.Outputs = 8
	}
	if len(spec.Drives) == 0 {
		spec.Drives = []float64{1, 2}
	}
	d := netlist.New(spec.Name)
	clk := mustPort(d, "clk", netlist.Input)

	// Flip-flops.
	ffs := make([]*netlist.Cell, spec.FFs)
	for i := range ffs {
		ffs[i] = mustCell(d, lib, fmt.Sprintf("ff%d", i), liberty.CellName("DFF", 1, liberty.SVT))
	}
	// Clock distribution.
	buildClockTree(d, lib, clk.Net, ffs, spec.ClockBufferLevels)

	// Source nets: primary inputs and FF Q outputs.
	var sources []*netlist.Net
	var srcLevel []int
	for i := 0; i < spec.Inputs; i++ {
		p := mustPort(d, fmt.Sprintf("in%d", i), netlist.Input)
		sources = append(sources, p.Net)
		srcLevel = append(srcLevel, 0)
	}
	for i, ff := range ffs {
		q := mustNet(d, fmt.Sprintf("ffq%d", i))
		connect(d, ff, "Q", q)
		sources = append(sources, q)
		srcLevel = append(srcLevel, 0)
	}

	pickVt := func() liberty.VtClass {
		r := rng.Float64()
		switch {
		case r < spec.VtMix[0]:
			return liberty.LVT
		case r < spec.VtMix[0]+spec.VtMix[2]:
			return liberty.HVT
		default:
			return liberty.SVT
		}
	}

	// Random DAG: each gate draws inputs from earlier nets, biased toward
	// recent ones (locality), with level bounded by MaxDepth.
	nets := append([]*netlist.Net(nil), sources...)
	levels := append([]int(nil), srcLevel...)
	for g := 0; g < spec.Gates; g++ {
		fn := gatePalette[rng.Intn(len(gatePalette))]
		drive := spec.Drives[rng.Intn(len(spec.Drives))]
		master := liberty.CellName(fn, drive, pickVt())
		cell := mustCell(d, lib, fmt.Sprintf("u%d", g), master)
		ins := liberty.FunctionInputs(fn)
		maxLvl := 0
		for _, pin := range ins {
			// Locality bias: prefer recently created nets.
			var idx int
			if rng.Float64() < 0.7 && len(nets) > 16 {
				idx = len(nets) - 1 - rng.Intn(16)
			} else {
				idx = rng.Intn(len(nets))
			}
			// Depth bound: if the chosen source is too deep, fall back to
			// a shallow source.
			if levels[idx] >= spec.MaxDepth {
				idx = rng.Intn(spec.Inputs + spec.FFs)
			}
			if levels[idx] > maxLvl {
				maxLvl = levels[idx]
			}
			connect(d, cell, pin, nets[idx])
		}
		out := mustNet(d, fmt.Sprintf("w%d", g))
		connect(d, cell, "Z", out)
		nets = append(nets, out)
		levels = append(levels, maxLvl+1)
	}

	// Sinks: FF D pins and primary outputs draw from the deepest nets to
	// exercise full-depth paths.
	pickSink := func() *netlist.Net {
		// Bias toward deep nets.
		best := nets[spec.Inputs+spec.FFs+rng.Intn(max(1, len(nets)-spec.Inputs-spec.FFs))]
		for tries := 0; tries < 4; tries++ {
			idx := spec.Inputs + spec.FFs + rng.Intn(max(1, len(nets)-spec.Inputs-spec.FFs))
			if levels[idx] > 0 && nets[idx] != best && levels[idx] >= levelOf(nets, levels, best) {
				best = nets[idx]
			}
		}
		return best
	}
	for _, ff := range ffs {
		connect(d, ff, "D", pickSink())
	}
	for i := 0; i < spec.Outputs; i++ {
		p := mustPort(d, fmt.Sprintf("out%d", i), netlist.Output)
		drv := mustCell(d, lib, fmt.Sprintf("obuf%d", i), liberty.CellName("BUF", 2, liberty.SVT))
		connect(d, drv, "A", pickSink())
		connect(d, drv, "Z", p.Net)
	}
	if spec.ClockGating {
		insertClockGating(d, lib, sources[0])
	}
	BufferHighFanout(d, lib, 12)
	sizeForFanout(d, lib)
	return d
}

// insertClockGating splices an ICG onto every second clock net that feeds
// CK pins directly, gating its flip-flop group with the given enable net.
func insertClockGating(d *netlist.Design, lib *liberty.Library, enable *netlist.Net) {
	icgMaster := liberty.CellName("ICG", 2, liberty.SVT)
	if lib.Cell(icgMaster) == nil {
		return
	}
	var targets []*netlist.Net
	for _, n := range d.Nets {
		hasCK := false
		for _, l := range n.Loads {
			m := lib.Cell(l.Cell.TypeName)
			if m != nil && m.FF != nil && l.Name == m.FF.Clock {
				hasCK = true
				break
			}
		}
		if hasCK {
			targets = append(targets, n)
		}
	}
	for i, n := range targets {
		if i%2 == 1 {
			continue
		}
		// Move this net's CK loads behind an ICG.
		var moved []*netlist.Pin
		for _, l := range n.Loads {
			m := lib.Cell(l.Cell.TypeName)
			if m != nil && m.FF != nil && l.Name == m.FF.Clock {
				moved = append(moved, l)
			}
		}
		if len(moved) == 0 {
			continue
		}
		icg := mustCell(d, lib, d.FreshName("icg"), icgMaster)
		gck := mustNet(d, d.FreshName("gck"))
		for _, p := range moved {
			d.Disconnect(p)
			connect(d, p.Cell, p.Name, gck)
		}
		connect(d, icg, "CK", n)
		connect(d, icg, "GCK", gck)
		connect(d, icg, "EN", enable)
	}
}

// BufferHighFanout splits every signal net with more than maxFO loads into
// a tree of BUF_X4 stages — the high-fanout-net synthesis every real flow
// runs, without which slews on input/register fanout nets are hopeless.
// Clock nets (driving CK pins) are left to CTS.
func BufferHighFanout(d *netlist.Design, lib *liberty.Library, maxFO int) int {
	bufMaster := liberty.CellName("BUF", 4, liberty.SVT)
	inserted := 0
	// Iterate until stable; newly created buffer nets are bounded by
	// construction.
	for pass := 0; pass < 6; pass++ {
		var work []*netlist.Net
		for _, n := range d.Nets {
			if len(n.Loads) <= maxFO {
				continue
			}
			clock := false
			for _, l := range n.Loads {
				if m := lib.Cell(l.Cell.TypeName); m != nil && m.FF != nil && l.Name == m.FF.Clock {
					clock = true
					break
				}
			}
			if !clock {
				work = append(work, n)
			}
		}
		if len(work) == 0 {
			break
		}
		for _, n := range work {
			loads := append([]*netlist.Pin(nil), n.Loads...)
			for lo := 0; lo < len(loads); lo += maxFO {
				hi := lo + maxFO
				if hi > len(loads) {
					hi = len(loads)
				}
				if lo == 0 && hi == len(loads) {
					break // nothing to split
				}
				if _, err := d.InsertBuffer(n, loads[lo:hi], bufMaster); err != nil {
					panic(err)
				}
				inserted++
			}
		}
	}
	return inserted
}

// sizeForFanout re-drives every cell (including flip-flops) to match its
// output fanout, the way a synthesis tool leaves a netlist: X1 for 1–2
// loads, X2 for 3–4, X4 for 5–9, X8 beyond. Vt assignments are preserved.
func sizeForFanout(d *netlist.Design, lib *liberty.Library) {
	for _, c := range d.Cells {
		m := lib.Cell(c.TypeName)
		if m == nil {
			continue
		}
		out := c.Output()
		if out == nil || out.Net == nil {
			continue
		}
		fo := out.Net.Fanout()
		drive := 1.0
		switch {
		case fo > 9:
			drive = 8
		case fo > 4:
			drive = 4
		case fo > 2:
			drive = 2
		}
		if drive != m.Drive {
			if v := lib.Variant(m, drive, m.Vt); v != nil {
				c.SetType(v.Name)
			}
		}
	}
}

func levelOf(nets []*netlist.Net, levels []int, n *netlist.Net) int {
	for i, nn := range nets {
		if nn == n {
			return levels[i]
		}
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// buildClockTree distributes clk to every FF CK pin through a balanced
// buffer tree of the requested depth (0 = direct connection).
func buildClockTree(d *netlist.Design, lib *liberty.Library, clk *netlist.Net, ffs []*netlist.Cell, levels int) {
	if levels <= 0 {
		for _, ff := range ffs {
			connect(d, ff, "CK", clk)
		}
		return
	}
	bufMaster := liberty.CellName("BUF", 4, liberty.SVT)
	// Recursive split: at each level, fan out to `branch` buffers.
	var build func(src *netlist.Net, sinks []*netlist.Cell, level int)
	build = func(src *netlist.Net, sinks []*netlist.Cell, level int) {
		if level == 0 || len(sinks) <= 4 {
			for _, ff := range sinks {
				connect(d, ff, "CK", src)
			}
			return
		}
		branch := 2
		per := (len(sinks) + branch - 1) / branch
		for b := 0; b < branch && b*per < len(sinks); b++ {
			buf := mustCell(d, lib, d.FreshName("ckbuf"), bufMaster)
			connect(d, buf, "A", src)
			out := mustNet(d, d.FreshName("cknet"))
			connect(d, buf, "Z", out)
			lo, hi := b*per, (b+1)*per
			if hi > len(sinks) {
				hi = len(sinks)
			}
			build(out, sinks[lo:hi], level-1)
		}
	}
	build(clk, ffs, levels)
}

// Named benchmark-scale blocks: sizes chosen to match the circuits of the
// paper's Figure 9 (c5315, c7552 from ISCAS-85; AES and MPEG2 SoC blocks).
// Topology is synthetic; scale and depth match the originals' character.

// C5315 is a c5315-scale block (~2.3k gates, depth ~26 in the original;
// registered here for sequential experiments).
func C5315(lib *liberty.Library) *netlist.Design {
	return Block(lib, BlockSpec{
		Name: "c5315", Inputs: 178, Outputs: 123, FFs: 128,
		Gates: 2307, MaxDepth: 16, Seed: 5315, ClockBufferLevels: 3,
	})
}

// C7552 is a c7552-scale block (~3.5k gates).
func C7552(lib *liberty.Library) *netlist.Design {
	return Block(lib, BlockSpec{
		Name: "c7552", Inputs: 207, Outputs: 108, FFs: 128,
		Gates: 3512, MaxDepth: 18, Seed: 7552, ClockBufferLevels: 3,
	})
}

// AES is an AES-core-scale block (~11k gates, XOR-rich).
func AES(lib *liberty.Library) *netlist.Design {
	return Block(lib, BlockSpec{
		Name: "aes", Inputs: 256, Outputs: 128, FFs: 530,
		Gates: 11000, MaxDepth: 14, Seed: 0xAE5, ClockBufferLevels: 4,
	})
}

// MPEG2 is an MPEG2-encoder-scale block (~8k gates, deeper datapaths).
func MPEG2(lib *liberty.Library) *netlist.Design {
	return Block(lib, BlockSpec{
		Name: "mpeg2", Inputs: 192, Outputs: 160, FFs: 640,
		Gates: 8200, MaxDepth: 22, Seed: 0x3E62, ClockBufferLevels: 4,
	})
}

// SoCBlock is the default mid-size block the closure experiments use.
func SoCBlock(lib *liberty.Library) *netlist.Design {
	return Block(lib, BlockSpec{
		Name: "soc_block", Inputs: 64, Outputs: 64, FFs: 256,
		Gates: 3000, MaxDepth: 14, Seed: 42, ClockBufferLevels: 3,
		VtMix: [3]float64{0.1, 0.7, 0.2},
	})
}
